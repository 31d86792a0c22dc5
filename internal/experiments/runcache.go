package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// cacheEntry is one persisted run. It repeats the schema version and
// config fingerprint so a stale or foreign file is detected even if it was
// copied into the wrong directory by hand.
type cacheEntry struct {
	SchemaVersion int          `json:"schema_version"`
	Fingerprint   string       `json:"fingerprint"`
	Key           keyDoc       `json:"key"`
	Output        runOutputDoc `json:"output"`
	// HostSeconds records how long the cached simulation took when it
	// actually ran — observational, restored only so -timings output has a
	// value, never part of any identity check.
	HostSeconds float64 `json:"host_seconds"`
}

// A RunCache persists completed RunOutputs on disk, one JSON file per
// RunKey, under a directory namespaced by the schema version and the sweep
// config's fingerprint. Repeated sweeps under the same config load their
// runs back instead of simulating; any config or schema change lands in a
// fresh namespace, so stale entries can never be replayed into a different
// sweep. A present-but-unreadable entry is an error naming the key and
// file — never a silent re-simulation and never a wrong table. A cache
// directory may be copied from another host; Load vets each entry the
// same way whoever wrote it.
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

// sanitizeName makes a key component portable as a file-name fragment
// (mem$ → mem_).
func sanitizeName(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// entryPath maps a RunKey to its file. Scheme names and THP are embedded
// readably; the workload name is sanitized (mem$ → mem_) so every key maps
// to a distinct portable file name.
func (c *RunCache) entryPath(key RunKey) string {
	return filepath.Join(c.dir, fmt.Sprintf("%s__%s__thp-%t.json", sanitizeName(key.Workload), sanitizeName(string(key.Scheme)), key.THP))
}

// Load returns the cached output for key. A missing entry is (nil, false,
// nil); a present but corrupt or mismatched entry is an error naming the
// key and file. An entry must hold exactly the bytes Store would write
// for the output it decodes to, so an accepted entry is lossless and a
// hand-edited one (reordered or duplicate metrics, stray or missing
// fields) is refused.
func (c *RunCache) Load(key RunKey) (*RunOutput, bool, error) {
	path := c.entryPath(key)
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("run cache: %s: reading %s: %w", key, path, err)
	}
	var e cacheEntry
	if err := json.Unmarshal(b, &e); err != nil {
		return nil, false, fmt.Errorf("run cache: %s: corrupt entry %s: %w", key, path, err)
	}
	if e.SchemaVersion != RunJSONSchemaVersion {
		return nil, false, fmt.Errorf("run cache: %s: entry %s has schema v%d, want v%d", key, path, e.SchemaVersion, RunJSONSchemaVersion)
	}
	if e.Fingerprint != c.fingerprint {
		return nil, false, fmt.Errorf("run cache: %s: entry %s has config fingerprint %.12s, want %.12s", key, path, e.Fingerprint, c.fingerprint)
	}
	if got := e.Key.key(); got != key {
		return nil, false, fmt.Errorf("run cache: %s: entry %s holds run %s", key, path, got)
	}
	out, err := decodeRunOutput(e.Output)
	if err != nil {
		return nil, false, fmt.Errorf("run cache: %s: corrupt entry %s: %w", key, path, err)
	}
	out.HostSeconds = e.HostSeconds
	if canon, err := c.entryBytes(key, out); err != nil || !bytes.Equal(b, canon) {
		return nil, false, fmt.Errorf("run cache: %s: entry %s is not in the form Store writes", key, path)
	}
	return out, true, nil
}

// entryBytes is the file content Store writes for key's output.
func (c *RunCache) entryBytes(key RunKey, out *RunOutput) ([]byte, error) {
	b, err := json.MarshalIndent(cacheEntry{
		SchemaVersion: RunJSONSchemaVersion,
		Fingerprint:   c.fingerprint,
		Key:           keyToDoc(key),
		Output:        encodeRunOutput(out),
		HostSeconds:   out.HostSeconds,
	}, "", "  ")
	return append(b, '\n'), err
}

// Store persists a completed run atomically (write to a temp file in the
// same directory, then rename), so a crashed or concurrent sweep can never
// leave a truncated entry behind.
func (c *RunCache) Store(key RunKey, out *RunOutput) error {
	b, err := c.entryBytes(key, out)
	if err != nil {
		return fmt.Errorf("run cache: %s: %w", key, err)
	}
	if err := c.writeAtomic(c.entryPath(key), b); err != nil {
		return fmt.Errorf("run cache: %s: %w", key, err)
	}
	return nil
}

// writeAtomic lands b at path via a same-directory temp file + rename.
func (c *RunCache) writeAtomic(path string, b []byte) error {
	tmp, err := os.CreateTemp(c.dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("writing %s: %w", tmp.Name(), err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("writing %s: %w", tmp.Name(), err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// artifactEntry is one persisted compute-phase measurement (see
// artifactFor). Like cacheEntry it repeats the schema version and config
// fingerprint so a stale or foreign file is a hard error, never a wrong
// table.
type artifactEntry struct {
	SchemaVersion int             `json:"schema_version"`
	Fingerprint   string          `json:"fingerprint"`
	Name          string          `json:"name"`
	Payload       json.RawMessage `json:"payload"`
}

// artifactPath maps an artifact name to its file. The "artifact--" prefix
// keeps the namespace disjoint from run entries, whose names always
// contain "__".
func (c *RunCache) artifactPath(name string) string {
	return filepath.Join(c.dir, "artifact--"+sanitizeName(name)+".json")
}

// LoadArtifact decodes the named artifact into v (a pointer). A missing
// entry is (false, nil); a present but corrupt or mismatched entry is an
// error naming the artifact and file.
func (c *RunCache) LoadArtifact(name string, v any) (bool, error) {
	path := c.artifactPath(name)
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("run cache: artifact %s: reading %s: %w", name, path, err)
	}
	var e artifactEntry
	if err := json.Unmarshal(b, &e); err != nil {
		return false, fmt.Errorf("run cache: artifact %s: corrupt entry %s: %w", name, path, err)
	}
	if e.SchemaVersion != RunJSONSchemaVersion {
		return false, fmt.Errorf("run cache: artifact %s: entry %s has schema v%d, want v%d", name, path, e.SchemaVersion, RunJSONSchemaVersion)
	}
	if e.Fingerprint != c.fingerprint {
		return false, fmt.Errorf("run cache: artifact %s: entry %s has config fingerprint %.12s, want %.12s", name, path, e.Fingerprint, c.fingerprint)
	}
	if e.Name != name {
		return false, fmt.Errorf("run cache: artifact %s: entry %s holds artifact %s", name, path, e.Name)
	}
	if err := json.Unmarshal(e.Payload, v); err != nil {
		return false, fmt.Errorf("run cache: artifact %s: corrupt entry %s: %w", name, path, err)
	}
	return true, nil
}

// StoreArtifact persists one compute-phase measurement atomically.
func (c *RunCache) StoreArtifact(name string, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("run cache: artifact %s: %w", name, err)
	}
	e := artifactEntry{
		SchemaVersion: RunJSONSchemaVersion,
		Fingerprint:   c.fingerprint,
		Name:          name,
		Payload:       payload,
	}
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return fmt.Errorf("run cache: artifact %s: %w", name, err)
	}
	if err := c.writeAtomic(c.artifactPath(name), append(b, '\n')); err != nil {
		return fmt.Errorf("run cache: artifact %s: %w", name, err)
	}
	return nil
}
