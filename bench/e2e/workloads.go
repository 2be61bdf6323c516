package main

import "nlidb/internal/benchdata"

// workload is one traffic mix against one dataset and topology.
type workload struct {
	Name     string
	Dataset  string
	Topology string
	// OpenRate is the fixed request rate of the open-loop phase, about a
	// third of the closed-loop capacity measured on the seed code (see
	// README.md, "Open-loop rates"). It is frozen: a later change is
	// measured at the same rate.
	OpenRate float64
	// Checked is how many requests, from the start of the stream, have
	// their rows compared with the gold statement's; the first Warmup of
	// them are asked before the measured phases.
	Checked int
	Warmup  int
	// Walk is how many questions the layer walk visits.
	Walk   int
	stream func(d *benchdata.Domain, seed int64) *stream
}

const (
	// loadClients is the closed-loop client count and connection count:
	// one per core of the 2-core machine the benchmark is calibrated on.
	loadClients = 2
	// openWorkers bounds requests in flight in the open loop; it stays
	// under admission's in-flight limit plus queue (4 + 16 on 2 cores) so
	// the generator itself never causes a shed.
	openWorkers = 16
)

var workloads = []workload{
	{
		Name: "vocab_distinct", Dataset: "sales2k", Topology: "gateway",
		OpenRate: 12, Checked: 400, Warmup: 40, Walk: 60,
		stream: vocabStream,
	},
	{
		Name: "scan_agg", Dataset: "ops200k", Topology: "gateway",
		OpenRate: 20, Checked: 120, Warmup: 40, Walk: 150,
		stream: func(d *benchdata.Domain, seed int64) *stream { return scanStream(d, seed, scanMix) },
	},
	{
		Name: "repeat_hot", Dataset: "sales2k", Topology: "gateway",
		OpenRate: 2000, Checked: hotPool, Warmup: hotPool, Walk: 60,
		stream: hotStream,
	},
	{
		Name: "shard_scatter", Dataset: "ops200k", Topology: "shard2",
		OpenRate: 20, Checked: 120, Warmup: 40, Walk: 150,
		stream: func(d *benchdata.Domain, seed int64) *stream { return scanStream(d, seed, scatterMix) },
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
