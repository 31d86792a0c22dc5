package lvm

import (
	"lvm/internal/experiments"
	"lvm/internal/oskernel"
	"lvm/internal/sim"
	"lvm/internal/vas"
	"lvm/internal/workload"
)

// OS and scheme layer.
type (
	// System is the OS layer: physical page allocation, page-table
	// construction and maintenance for one scheme, THP policy, ASLR
	// normalization.
	System = oskernel.System
	// Process is one launched address space.
	Process = oskernel.Process
	// Scheme selects a page-table structure.
	Scheme = oskernel.Scheme
	// AddressSpace is a process virtual-memory layout.
	AddressSpace = vas.AddressSpace
	// LayoutConfig drives synthetic layout generation.
	LayoutConfig = vas.LayoutConfig
)

// Page-table schemes.
const (
	SchemeRadix   = oskernel.SchemeRadix
	SchemeECPT    = oskernel.SchemeECPT
	SchemeLVM     = oskernel.SchemeLVM
	SchemeIdeal   = oskernel.SchemeIdeal
	SchemeFPT     = oskernel.SchemeFPT
	SchemeASAP    = oskernel.SchemeASAP
	SchemeMidgard = oskernel.SchemeMidgard
)

// NewSystem creates the OS layer for one scheme over a physical memory.
func NewSystem(mem *PhysicalMemory, scheme Scheme) *System {
	return oskernel.NewSystem(mem, scheme)
}

// GenerateAddressSpace builds a synthetic process layout (regions, ASLR,
// allocator hole patterns).
func GenerateAddressSpace(cfg LayoutConfig, seed int64) *AddressSpace {
	return vas.Generate(cfg, seed)
}

// DefaultLayout returns a memory-intensive server layout configuration.
func DefaultLayout() LayoutConfig { return vas.DefaultConfig() }

// GapCoverage computes the Figure-2 regularity metric over sorted VPNs.
func GapCoverage(vpns []VPN) float64 { return vas.GapCoverage(vpns) }

// Simulation layer.
type (
	// MachineConfig is the timing model configuration (Table 1).
	MachineConfig = sim.Config
	// CPU is one simulated core.
	CPU = sim.CPU
	// SimResult carries the metrics of one simulation.
	SimResult = sim.Result
	// Workload bundles an address space and its access trace.
	Workload = workload.Workload
	// WorkloadParams scales workload construction.
	WorkloadParams = workload.Params
)

// DefaultMachine returns the Table-1 machine model.
func DefaultMachine() MachineConfig { return sim.DefaultConfig() }

// ScaledMachine returns the proportionally scaled machine model the
// experiment harness uses (see sim.ScaledConfig for the scaling argument).
func ScaledMachine() MachineConfig { return sim.ScaledConfig() }

// NewCPU creates a simulated core bound to a scheme's hardware walker.
func NewCPU(cfg MachineConfig, sys *System) *CPU { return sim.New(cfg, sys.Walker()) }

// BuildWorkload constructs one of the paper's evaluation workloads
// ("bfs", "pr", "cc", "dc", "dfs", "sssp", "gups", "mem$", "MUMr").
func BuildWorkload(name string, p WorkloadParams) (*Workload, error) {
	return workload.Build(name, p)
}

// DefaultWorkloadParams returns the full-scale workload configuration.
func DefaultWorkloadParams() WorkloadParams { return workload.DefaultParams() }

// QuickWorkloadParams returns a small configuration for experimentation.
func QuickWorkloadParams() WorkloadParams { return workload.QuickParams() }

// WorkloadNames lists the nine Figure-9 workloads.
func WorkloadNames() []string { return workload.SpeedupNames() }

// Experiment harness.
type (
	// Experiments regenerates the paper's tables and figures: its Execute
	// method selects experiments by key, plans them and executes the plan.
	Experiments = experiments.Runner
	// ExperimentConfig sizes the experiment sweep.
	ExperimentConfig = experiments.Config
	// ExperimentOptions bounds one Execute call: worker count, memory
	// budget and an optional run cache.
	ExperimentOptions = experiments.ExecOptions
)

// NewExperiments creates the harness. Repeated Execute calls on one
// harness reuse the runs and measurements it already holds.
func NewExperiments(cfg ExperimentConfig) *Experiments { return experiments.NewRunner(cfg) }

// DefaultExperiments is the full-scale sweep configuration.
func DefaultExperiments() ExperimentConfig { return experiments.Default() }

// QuickExperiments is a reduced sweep for fast iteration.
func QuickExperiments() ExperimentConfig { return experiments.Quick() }

// Simulate is the one-call evaluation path: build the named workload,
// launch it under the scheme, and run the trace through the machine model.
func Simulate(name string, scheme Scheme, thp bool, wp WorkloadParams, mc MachineConfig) (SimResult, error) {
	w, err := workload.Build(name, wp)
	if err != nil {
		return SimResult{}, err
	}
	mem := NewPhysicalMemory(w.FootprintBytes() + w.FootprintBytes()/2 + (1 << 30))
	sys := oskernel.NewSystem(mem, scheme)
	if _, err := sys.Launch(1, w.Space, thp); err != nil {
		return SimResult{}, err
	}
	mc.Midgard = scheme == SchemeMidgard
	cpu := sim.New(mc, sys.Walker())
	return cpu.Run(1, w), nil
}
