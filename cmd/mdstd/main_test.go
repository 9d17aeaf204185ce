package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestValidateOptions pins the flag combinations mdstd refuses before it
// starts anything, among them liveness detection without heartbeats: a
// process idle in a peer's solo stretch legitimately hears no data frame
// for the whole stretch, so silence alone cannot tell a dead peer.
func TestValidateOptions(t *testing.T) {
	ok := runOptions{heartbeat: 500 * time.Millisecond, liveness: 10 * time.Second}
	cases := []struct {
		name string
		edit func(*runOptions)
		want string // "" accepts
	}{
		{"defaults", func(*runOptions) {}, ""},
		{"detection off", func(o *runOptions) { o.heartbeat, o.liveness = 0, 0 }, ""},
		{"heartbeats without detection", func(o *runOptions) { o.liveness = 0 }, ""},
		{"liveness without heartbeats", func(o *runOptions) { o.heartbeat = 0 }, "requires -heartbeat"},
		{"freeze and resume", func(o *runOptions) { o.ckptOut, o.resume = "a", "b" }, "mutually exclusive"},
		{"cadence without dir", func(o *runOptions) { o.ckptEvery = 2 }, "requires -checkpoint-dir"},
		{"bad fault plan", func(o *runOptions) { o.faults = "bogus" }, "fault plan"},
	}
	for _, tc := range cases {
		o := ok
		tc.edit(&o)
		err := o.validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestReadConfigRejectsUnknownKeys pins that a config key mdstd does not
// know fails the read with an error naming it: a misspelt key and the
// retired max_messages cap are refused, not silently ignored.
func TestReadConfigRejectsUnknownKeys(t *testing.T) {
	const base = `"addrs":["a","b"],"graph":{"family":"gnm","n":96,"m":288,"seed":1}`
	cases := []struct {
		name, body string
		want       string // "" accepts
	}{
		{"valid", `{` + base + `,"partition":"bfs"}`, ""},
		{"misspelt key", `{` + base + `,"partiton":"bfs"}`, `"partiton"`},
		{"retired max_messages", `{` + base + `,"max_messages":1000}`, `"max_messages"`},
		{"unknown graph key", `{"addrs":["a"],"graph":{"family":"gnm","n":8,"sed":1}}`, `"sed"`},
		{"trailing data", `{` + base + `} {}`, "after the config object"},
	}
	for _, tc := range cases {
		path := filepath.Join(t.TempDir(), "cluster.json")
		if err := os.WriteFile(path, []byte(tc.body), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := readConfig(path)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: got %v, want an error containing %s", tc.name, err, tc.want)
		}
	}
}
