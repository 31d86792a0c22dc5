package experiments

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"lvm/internal/workload"
)

// A ShardSpec selects one deterministic partition of a plan's run matrix
// for scale-out execution: shard Index of Count executes only the runs
// AssignShards gives it into its run cache, and the shards' caches are
// recombined by copying them together before a warm sweep. The zero value
// (Count 0) means unsharded execution.
type ShardSpec struct {
	Index, Count int
}

func (s ShardSpec) String() string { return fmt.Sprintf("%d/%d", s.Index, s.Count) }

// enabled reports whether the spec actually partitions the plan.
func (s ShardSpec) enabled() bool { return s.Count > 1 }

// validate rejects malformed specs with an error naming the field.
func (s ShardSpec) validate() error {
	if s.Count < 1 {
		return fmt.Errorf("experiments: shard count %d < 1", s.Count)
	}
	if s.Index < 0 || s.Index >= s.Count {
		return fmt.Errorf("experiments: shard index %d outside [0,%d)", s.Index, s.Count)
	}
	return nil
}

// ParseShard parses the lvmbench -shard syntax "i/n".
func ParseShard(s string) (ShardSpec, error) {
	idx, cnt, ok := strings.Cut(s, "/")
	if !ok {
		return ShardSpec{}, fmt.Errorf("experiments: shard %q not of the form i/n", s)
	}
	i, err := strconv.Atoi(strings.TrimSpace(idx))
	if err != nil {
		return ShardSpec{}, fmt.Errorf("experiments: shard index %q: %w", idx, err)
	}
	n, err := strconv.Atoi(strings.TrimSpace(cnt))
	if err != nil {
		return ShardSpec{}, fmt.Errorf("experiments: shard count %q: %w", cnt, err)
	}
	spec := ShardSpec{Index: i, Count: n}
	if err := spec.validate(); err != nil {
		return ShardSpec{}, err
	}
	return spec, nil
}

// AssignShards partitions cost-weighted runs across n shards with the LPT
// (longest-processing-time) heuristic: runs are considered in order of
// decreasing cost and each goes to the least-loaded shard. Every tie is
// broken on the lower index — run order by plan position, shard choice by
// shard number, so the assignment is a pure function of (costs, n) and
// every host computes the same partition. Returns the shard index per run.
func AssignShards(costs []uint64, n int) []int {
	assign := make([]int, len(costs))
	if n <= 1 {
		return assign
	}
	order := make([]int, len(costs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if costs[order[a]] != costs[order[b]] {
			return costs[order[a]] > costs[order[b]]
		}
		return order[a] < order[b]
	})
	loads := make([]uint64, n)
	counts := make([]int, n)
	for _, i := range order {
		best := 0
		for s := 1; s < n; s++ {
			if loads[s] < loads[best] || (loads[s] == loads[best] && counts[s] < counts[best]) {
				best = s
			}
		}
		assign[i] = best
		loads[best] += costs[i]
		counts[best]++
	}
	return assign
}

// EstimateCosts returns each plan run's CostBytes — the simulated physical
// memory the scheduler will charge it — computed from the workload-footprint
// estimator, so no workload is built. The estimates are exact (the
// estimator reproduces the builders' sizing formulas), which makes shard
// assignment identical whether or not a host ever builds the workloads.
func (r *Runner) EstimateCosts(p Plan) ([]uint64, error) {
	costs := make([]uint64, len(p.Runs))
	est := make(map[string]uint64)
	for i, k := range p.Runs {
		e, ok := est[k.Workload]
		if !ok {
			fp, err := workload.EstimateFootprintBytes(k.Workload, r.Cfg.Params)
			if err != nil {
				return nil, fmt.Errorf("experiments: estimating cost of %s: %w", k, err)
			}
			e = r.costFromFootprint(fp)
			est[k.Workload] = e
		}
		costs[i] = e
	}
	return costs, nil
}

// AssignPlan computes the deterministic n-way shard assignment of p.Runs
// (one shard index per run, aligned with plan order).
func (r *Runner) AssignPlan(p Plan, n int) ([]int, error) {
	costs, err := r.EstimateCosts(p)
	if err != nil {
		return nil, err
	}
	return AssignShards(costs, n), nil
}
