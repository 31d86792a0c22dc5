package main

import (
	"os"
	"strings"
	"testing"
)

// TestRunRefusesConflictingFlags checks the flag combinations run refuses
// before it plans, builds or simulates anything: the cache directory it is
// handed stays empty.
func TestRunRefusesConflictingFlags(t *testing.T) {
	for _, tc := range []struct {
		name  string
		o     options
		cache bool // pass -cache, pointing at an empty directory
		want  string
	}{
		{"shard without cache", options{shard: "0/2"}, false, "-shard requires -cache"},
		{"shard with json", options{shard: "0/2", jsonPath: "out.json"}, true, "-shard does not write -json"},
		{"worker with shard", options{worker: "127.0.0.1:1", shard: "0/2"}, false, "-worker"},
		{"serve with shard", options{serve: "127.0.0.1:0", shard: "0/2"}, true, "-serve"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if tc.cache {
				tc.o.cacheDir = dir
			}
			tc.o.quick, tc.o.workers = true, 1
			err := run(tc.o)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run returned %v, want an error mentioning %q", err, tc.want)
			}
			if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
				t.Errorf("refused run touched the cache directory: %v %v", entries, err)
			}
		})
	}
}
