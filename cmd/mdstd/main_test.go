package main

import (
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
