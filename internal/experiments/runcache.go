package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
)

// cacheEntry is one persisted plan task: a run (named by its RunKey, with
// a runOutputDoc payload) or an experiment's measurement (named by the
// experiment key, with its JSON payload). It repeats the schema version
// and config fingerprint so a stale or foreign file is detected even if it
// was copied into the wrong directory by hand.
type cacheEntry struct {
	SchemaVersion int    `json:"schema_version"`
	Fingerprint   string `json:"fingerprint"`
	Name          string `json:"name"`
	// Payload is the task's result; Load decodes into the pointer the
	// caller puts here.
	Payload any `json:"payload"`
	// HostSeconds records how long the task took when it actually ran —
	// observational, restored only so -timings output has a value, never
	// part of any identity check.
	HostSeconds float64 `json:"host_seconds"`
}

// A RunCache persists completed plan tasks on disk, one JSON file per
// task, under a directory namespaced by the schema version and the sweep
// config's fingerprint. Repeated sweeps under the same config load their
// results back instead of simulating; any config or schema change lands in
// a fresh namespace, so stale entries can never be replayed into a
// different sweep. A present-but-unreadable entry is an error naming the
// task and file — never a silent re-simulation and never a wrong table. A
// cache directory may be copied from another host; Load vets each entry
// the same way whoever wrote it.
type RunCache struct {
	dir         string
	fingerprint string
}

// NewRunCache opens (creating if needed) the cache namespace for cfg under
// root.
func NewRunCache(root string, cfg Config) (*RunCache, error) {
	fp, err := cfg.Fingerprint()
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(root, fmt.Sprintf("v%d-%s", RunJSONSchemaVersion, fp[:16]))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("experiments: run cache: %w", err)
	}
	return &RunCache{dir: dir, fingerprint: fp}, nil
}

// path maps a task name to its file: every character outside
// [A-Za-z0-9.-] becomes '_' (mem$/lvm thp=false → mem__lvm_thp_false.json),
// so the names of one plan map to distinct portable file names.
func (c *RunCache) path(name string) string {
	var b strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return filepath.Join(c.dir, b.String()+".json")
}

// Load decodes the entry of the named task into payload (a pointer) and
// returns the host seconds it recorded. A missing entry is (0, false,
// nil); a present but corrupt or mismatched entry is an error naming the
// task and file. An entry must hold exactly the bytes Store would write
// for the payload it decodes to, so an accepted entry is lossless and a
// hand-edited one (reordered or duplicate fields, stray or missing ones)
// is refused.
func (c *RunCache) Load(name string, payload any) (hostSeconds float64, hit bool, err error) {
	path := c.path(name)
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, fmt.Errorf("run cache: %s: reading %s: %w", name, path, err)
	}
	e := cacheEntry{Payload: payload}
	if err := json.Unmarshal(b, &e); err != nil {
		return 0, false, fmt.Errorf("run cache: %s: corrupt entry %s: %w", name, path, err)
	}
	if e.SchemaVersion != RunJSONSchemaVersion {
		return 0, false, fmt.Errorf("run cache: %s: entry %s has schema v%d, want v%d", name, path, e.SchemaVersion, RunJSONSchemaVersion)
	}
	if e.Fingerprint != c.fingerprint {
		return 0, false, fmt.Errorf("run cache: %s: entry %s has config fingerprint %.12s, want %.12s", name, path, e.Fingerprint, c.fingerprint)
	}
	if e.Name != name {
		return 0, false, fmt.Errorf("run cache: %s: entry %s holds %s", name, path, e.Name)
	}
	if canon, err := c.entryBytes(name, payload, e.HostSeconds); err != nil || !bytes.Equal(b, canon) {
		return 0, false, fmt.Errorf("run cache: %s: entry %s is not in the form Store writes", name, path)
	}
	return e.HostSeconds, true, nil
}

// entryBytes is the file content Store writes for the named task.
func (c *RunCache) entryBytes(name string, payload any, hostSeconds float64) ([]byte, error) {
	b, err := json.MarshalIndent(cacheEntry{
		SchemaVersion: RunJSONSchemaVersion,
		Fingerprint:   c.fingerprint,
		Name:          name,
		Payload:       payload,
		HostSeconds:   hostSeconds,
	}, "", "  ")
	return append(b, '\n'), err
}

// Store persists a completed task atomically (write to a temp file in the
// same directory, then rename), so a crashed or concurrent sweep can never
// leave a truncated entry behind.
func (c *RunCache) Store(name string, payload any, hostSeconds float64) error {
	b, err := c.entryBytes(name, payload, hostSeconds)
	if err != nil {
		return fmt.Errorf("run cache: %s: %w", name, err)
	}
	path := c.path(name)
	tmp, err := os.CreateTemp(c.dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("run cache: %s: %w", name, err)
	}
	_, err = tmp.Write(b)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("run cache: %s: writing %s: %w", name, path, err)
	}
	return nil
}

// loadRun restores key's output from c. A corrupt entry, or one whose
// payload is not a run output, is an error naming the run and file. The
// payload must also be what Store writes for the output it decodes to:
// a metrics list with a duplicated, reordered or mistyped metric passes
// Load's byte check but would not be written back as is.
func (c *RunCache) loadRun(key RunKey) (*RunOutput, bool, error) {
	var doc runOutputDoc
	secs, hit, err := c.Load(key.String(), &doc)
	if err != nil || !hit {
		return nil, hit, err
	}
	out, err := decodeRunOutput(doc)
	if err != nil {
		return nil, false, fmt.Errorf("run cache: %s: corrupt entry %s: %w", key, c.path(key.String()), err)
	}
	if !reflect.DeepEqual(encodeRunOutput(out), doc) {
		return nil, false, fmt.Errorf("run cache: %s: entry %s is not in the form Store writes", key, c.path(key.String()))
	}
	out.HostSeconds = secs
	return out, true, nil
}

// storeRun persists key's output.
func (c *RunCache) storeRun(key RunKey, out *RunOutput) error {
	doc := encodeRunOutput(out)
	return c.Store(key.String(), &doc, out.HostSeconds)
}
