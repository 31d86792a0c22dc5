package experiments

// Compute-phase artifact caching: several experiments measure things no
// RunKey covers — the tail-latency study, the fragmentation sweep, the
// Table-2 scaling launches, the hash-collision baseline, and the other
// bespoke one-off simulations. Each of those measurements is a pure
// function of the sweep Config, so its result can be persisted in the run
// cache's fingerprint namespace exactly like a RunOutput: a warm sweep
// reloads the measured data and only re-renders the table from it. The
// cold path renders from the same data struct, which is what makes a warm
// re-render byte-identical by construction.

// SetArtifactCache installs (or, with nil, removes) the persistent store
// for bespoke compute-phase measurements. ExecutePlan wires it
// automatically from ExecOptions.Cache.
func (r *Runner) SetArtifactCache(c *RunCache) { r.arts = c }

// artifactFor returns the named compute-phase measurement: loaded from the
// runner's artifact cache when present, computed (and stored) otherwise.
// T must round-trip losslessly through encoding/json — pure data structs
// of numbers, strings, maps, and slices.
func artifactFor[T any](r *Runner, name string, compute func() (T, error)) (T, error) {
	var zero T
	if r.arts == nil {
		return compute()
	}
	var v T
	hit, err := r.arts.LoadArtifact(name, &v)
	if err != nil {
		return zero, err
	}
	if hit {
		r.sink.Emit(Event{Kind: ArtifactCached, Artifact: name})
		return v, nil
	}
	v, err = compute()
	if err != nil {
		return zero, err
	}
	if err := r.arts.StoreArtifact(name, v); err != nil {
		return zero, err
	}
	r.sink.Emit(Event{Kind: ArtifactStored, Artifact: name})
	return v, nil
}
