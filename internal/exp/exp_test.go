package exp

import (
	"strings"
	"testing"
)

// TestAllExperimentsRun executes every driver at quick scale and checks the
// tables are well-formed.
func TestAllExperimentsRun(t *testing.T) {
	cfg := Quick()
	for _, id := range IDs() {
		driver := All()[id]
		t.Run(id, func(t *testing.T) {
			tbl := driver(cfg)
			if tbl.ID != id {
				t.Errorf("table id %q, want %q", tbl.ID, id)
			}
			if len(tbl.Rows) == 0 {
				t.Fatal("no rows")
			}
			for i, row := range tbl.Rows {
				if len(row) != len(tbl.Header) {
					t.Errorf("row %d has %d cells, header has %d", i, len(row), len(tbl.Header))
				}
			}
			out := tbl.String()
			if !strings.Contains(out, tbl.Title) {
				t.Error("rendered table misses its title")
			}
		})
	}
}

// TestE7BudgetsHold: the per-phase budget table must not contain "no".
func TestE7BudgetsHold(t *testing.T) {
	tbl := E7Phases(Quick())
	for _, row := range tbl.Rows {
		if row[len(row)-1] != "yes" {
			t.Errorf("phase %s exceeded its budget: %v", row[0], row)
		}
	}
}

// TestA2TwinAllIdentical: the oracle comparison must be all-yes.
func TestA2TwinAllIdentical(t *testing.T) {
	tbl := A2Twin(Quick())
	for _, row := range tbl.Rows {
		for _, cell := range row[2:] {
			if cell != "yes" {
				t.Errorf("twin mismatch: %v", row)
			}
		}
	}
}

// TestA3DeliveryIndependent: message counts and trees must match across
// engines.
func TestA3DeliveryIndependent(t *testing.T) {
	tbl := A3Engines(Quick())
	if len(tbl.Rows) < 2 {
		t.Fatal("need several engines")
	}
	msgs := tbl.Rows[0][1]
	for _, row := range tbl.Rows {
		if row[1] != msgs {
			t.Errorf("engine %s message count %s differs from %s", row[0], row[1], msgs)
		}
		if row[len(row)-1] != "yes" {
			t.Errorf("engine %s produced a different tree", row[0])
		}
	}
}

func TestIDsOrder(t *testing.T) {
	ids := IDs()
	if len(ids) != len(All()) {
		t.Fatalf("IDs() returned %d of %d", len(ids), len(All()))
	}
	if ids[0] != "A1" && ids[0] != "E1" {
		t.Errorf("unexpected first id %s", ids[0])
	}
}

func TestTableFormatting(t *testing.T) {
	tbl := &Table{ID: "X", Title: "demo", Header: []string{"a", "bee"}}
	tbl.Add(1, 2.5)
	tbl.Add(true, "x")
	tbl.Note("footnote %d", 7)
	out := tbl.String()
	for _, want := range []string{"demo", "bee", "2.5", "yes", "footnote 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("output misses %q:\n%s", want, out)
		}
	}
}
