package loadgen

import (
	"encoding/json"
	"fmt"
	"io"
)

// ReportSchema identifies the load-report JSON layout; bump the suffix
// on breaking changes so downstream CI gates fail loudly instead of
// misreading fields.
const ReportSchema = "acclaim.load_report/v1"

// LatencySummary is the run-wide latency distribution, in nanoseconds,
// exact to within one HDR bucket (~3.1% relative). Open-loop runs
// measure from scheduled arrival, so queueing delay is included.
type LatencySummary struct {
	P50Ns  float64 `json:"p50_ns"`
	P90Ns  float64 `json:"p90_ns"`
	P99Ns  float64 `json:"p99_ns"`
	P999Ns float64 `json:"p999_ns"`
	MaxNs  float64 `json:"max_ns"`
	MeanNs float64 `json:"mean_ns"`
}

// CollReport is one collective's slice of the run (completed requests
// only; errors are not attributed to a collective).
type CollReport struct {
	Collective string  `json:"collective"`
	Requests   uint64  `json:"requests"`
	Misses     uint64  `json:"misses"`
	P50Ns      float64 `json:"p50_ns"`
	P99Ns      float64 `json:"p99_ns"`
	P999Ns     float64 `json:"p999_ns"`
}

// SweepPoint is one offered-rate step of a saturation sweep.
type SweepPoint struct {
	OfferedQPS  float64 `json:"offered_qps"`
	AchievedQPS float64 `json:"achieved_qps"`
	P50Ns       float64 `json:"p50_ns"`
	P99Ns       float64 `json:"p99_ns"`
	P999Ns      float64 `json:"p999_ns"`
	Errors      uint64  `json:"errors"`
}

// TenantReport is one tenant's slice of a multi-tenant run (completed
// requests only). Tenant is the mix's tenant index; targets map it to
// a registry shard.
type TenantReport struct {
	Tenant   int    `json:"tenant"`
	Requests uint64 `json:"requests"`
	Misses   uint64 `json:"misses"`
}

// Report is the acclaim.load_report/v1 document. The batch and tenant
// fields are omitted for unbatched single-tenant runs, so reports from
// pre-existing configurations stay byte-identical.
type Report struct {
	Schema        string         `json:"schema"`
	Mode          string         `json:"mode"`
	Target        string         `json:"target"`
	Seed          int64          `json:"seed"`
	Workers       int            `json:"workers"`
	Batch         int            `json:"batch,omitempty"`
	Tenants       int            `json:"tenants,omitempty"`
	TenantSkew    string         `json:"tenant_skew,omitempty"`
	Requests      uint64         `json:"requests"`
	Errors        uint64         `json:"errors"`
	Misses        uint64         `json:"misses"`
	DurationNs    int64          `json:"duration_ns"`
	ThroughputQPS float64        `json:"throughput_qps"`
	OfferedQPS    float64        `json:"offered_qps,omitempty"`
	Latency       LatencySummary `json:"latency"`
	PerCollective []CollReport   `json:"per_collective"`
	PerTenant     []TenantReport `json:"per_tenant,omitempty"`
	Sweep         []SweepPoint   `json:"sweep,omitempty"`
}

// WriteJSON writes the report as indented JSON. encoding/json field
// order is declaration order, so identical runs produce identical
// bytes — the determinism tests compare these buffers directly.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteBenchPrefixed renders the run as one Go-testing-style
// benchmark line,
//
//	Benchmark<name> 1 <duration> ns/op <qps> <prefix>throughput_qps <p99> <prefix>p99_ns
//
// which cmd/benchguard parses like any `go test -bench` output: the CI
// load-smoke job pipes this into benchguard with a throughput_qps
// floor and a p99_ns ceiling to gate serving-path SLOs. A non-empty
// prefix (e.g. "tcp_" emits tcp_throughput_qps and tcp_p99_ns) lets
// one benchguard invocation gate several transport runs with distinct
// -floor/-ceiling bounds.
func (r *Report) WriteBenchPrefixed(w io.Writer, name, prefix string) error {
	_, err := fmt.Fprintf(w, "Benchmark%s 1 %d ns/op %.2f %sthroughput_qps %.0f %sp99_ns\n",
		name, r.DurationNs, r.ThroughputQPS, prefix, r.Latency.P99Ns, prefix)
	return err
}
