package main

// e2eMetric is one end-to-end metric: something a user of the system
// would see, measured with tracing off.
type e2eMetric struct {
	name, unit   string
	higherBetter bool
	// bound is the share of the baseline's value by which the metric may
	// worsen before it counts as a regression. For a gated metric it is
	// the bound BENCHMARK.json carries, where one bound serves every
	// workload, so it is what the noisiest workload needs (README,
	// "Steadiness").
	bound float64
	// tighter overrides bound for -compare on workloads that hold a
	// tighter one: times made of simulated network delay, and counts.
	tighter map[string]float64
	// gated: BENCHMARK.json lists the metric under end_to_end, so every
	// workload's JSON result line carries it (README, "The contract").
	// The others are printed and written to -out.
	gated bool
	// judgedOn are the workloads -compare judges the metric on; nil
	// means all of them.
	judgedOn []string
}

func (m e2eMetric) boundOn(workload string) float64 {
	if b, ok := m.tighter[workload]; ok {
		return b
	}
	return m.bound
}

// cpuTime is the bound of a time made of CPU work on the sandbox, whose
// speed wanders by more than any smaller bound (README, "Steadiness").
const cpuTime = 0.25

var e2eMetricList = []e2eMetric{
	// BENCHMARK.json's contract wants setup_s gated. A set-up of a few
	// milliseconds does not hold 25 % between two full runs of unchanged
	// code, so -compare judges it only where it takes a third of a second.
	{name: "setup_s", unit: unitS, bound: cpuTime, gated: true, judgedOn: []string{"bulk-stream"}},
	{name: "fetch_p50_ms", unit: unitMs, bound: cpuTime, gated: true, tighter: map[string]float64{"wan-page": 0.03}},
	// first-visit's p95 falls where the few fetches that run into a
	// garbage collection begin, and swings by up to 45 % between runs of
	// one binary: printed there, judged where it holds still, gated
	// nowhere. page_load_p90_ms is the gated tail.
	{name: "fetch_p95_ms", unit: unitMs, bound: cpuTime, judgedOn: []string{"bulk-stream", "update-churn"}},
	// On any one workload fetch_per_s is goodput_mb_per_s times a
	// constant, so one of the two is gated.
	{name: "fetch_per_s", unit: unitRate, higherBetter: true, bound: cpuTime, judgedOn: []string{"update-churn"}},
	{name: "goodput_mb_per_s", unit: unitMBps, higherBetter: true, bound: cpuTime, gated: true, tighter: map[string]float64{"wan-page": 0.05}},
	{name: "page_load_p50_ms", unit: unitMs, bound: cpuTime, gated: true, tighter: map[string]float64{"wan-page": 0.03}},
	{name: "page_load_p90_ms", unit: unitMs, bound: cpuTime, gated: true, tighter: map[string]float64{"wan-page": 0.10}},
	{name: "vs_http_ratio", unit: unitRatio, bound: 0.03, judgedOn: []string{"wan-page"}},
	{name: "vs_https_ratio", unit: unitRatio, bound: 0.03, judgedOn: []string{"wan-page"}},
	{name: "update_visible_p50_ms", unit: unitMs, bound: cpuTime, judgedOn: []string{"update-churn"}},
	{name: "update_visible_p95_ms", unit: unitMs, bound: cpuTime, judgedOn: []string{"update-churn"}},
	// Two clients racing refill pools at different moments run to run,
	// so bulk-stream's counts are steady to a few per cent, not exactly;
	// the single-client workloads' repeat to the digit.
	{name: "allocs_per_fetch", unit: unitCount, bound: 0.05, gated: true,
		tighter: map[string]float64{"first-visit": 0.02, "wan-page": 0.02, "update-churn": 0.02}},
	{name: "alloc_bytes_per_payload_byte", unit: unitRatio, bound: 0.10, gated: true,
		tighter: map[string]float64{"first-visit": 0.02, "wan-page": 0.02, "update-churn": 0.02}},
	// Expected 0: any rise is a regression, which -compare
	// special-cases. BENCHMARK.json's contract carries the same
	// information as failed ÷ attempted.
	{name: "failed_share", unit: unitRatio},
}

// judgedFor says whether -compare judges the metric on workload.
func (m e2eMetric) judgedFor(workload string) bool {
	if m.judgedOn == nil {
		return true
	}
	for _, w := range m.judgedOn {
		if w == workload {
			return true
		}
	}
	return false
}

// gatedMetrics are the metrics BENCHMARK.json lists under end_to_end and
// every workload's JSON result line carries.
func gatedMetrics() []e2eMetric {
	var out []e2eMetric
	for _, m := range e2eMetricList {
		if m.gated {
			out = append(out, m)
		}
	}
	return out
}
