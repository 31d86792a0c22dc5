package lvmd

import (
	"runtime"

	"lvm/internal/experiments"
)

// Config sizes the daemon. Exp doubles as the bit-identity anchor: its
// fingerprint is vetted in every handshake, so a client and daemon holding
// different simulation configs can never exchange windows that silently
// mean different machines.
type Config struct {
	// Exp is the simulation configuration every tenant machine is built
	// from (workload params, machine model, footprint sizing).
	Exp experiments.Config
	// MemBudgetBytes caps the summed admission charges of in-flight
	// sessions (0 = experiments.DefaultMemBudgetBytes; the lvmd -mem flag
	// can raise or lower it).
	MemBudgetBytes uint64
	// Workers bounds concurrently *simulating* sessions (admitted sessions
	// beyond it queue for a worker slot); values < 1 mean GOMAXPROCS.
	Workers int
	// DefaultEvery is the interval window for sessions that do not set
	// one (0 = a single window spanning the whole trace).
	DefaultEvery int
}

// Default serves the full-scale sweep configuration.
func Default() Config {
	return Config{Exp: experiments.Default()}
}

// Quick serves the reduced test configuration (small footprints, so many
// tenants fit one budget). Both the daemon and its load harness construct
// this same value, which is what makes their fingerprints agree.
func Quick() Config {
	return Config{Exp: experiments.Quick()}
}

// withDefaults resolves the zero values.
func (c Config) withDefaults() Config {
	if c.MemBudgetBytes == 0 {
		c.MemBudgetBytes = experiments.DefaultMemBudgetBytes
	}
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Fingerprint is the handshake identity: the Exp config's fingerprint
// (schema-versioned sha256), the same identity that namespaces the sweep's
// run cache.
func (c Config) Fingerprint() (string, error) {
	return c.Exp.Fingerprint()
}
