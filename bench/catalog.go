package main

// endToEnd names the end-to-end metrics: every workload reports every
// one of them on an untraced run. BENCHMARK.json carries their
// directions and regression bounds; the tests hold the two lists equal.
var endToEnd = []string{
	"setup_s", "sat_ops_s", "op_p50_ms", "peak_rss_mb",
}

// serveLoadLayer are the per-layer metrics read off a loaded cluster of
// servers, with their units. The simulator workload has no server,
// client or fabric on its path and reports them as zero work done.
var serveLoadLayer = map[string]string{
	"loadgen.late_share":          "share",
	"loadgen.late_p99_ms":         "ms",
	"loadgen.offered_ops_s":       "1/s",
	"loadgen.get_p99_all_ms":      "ms",
	"loadgen.put_p99_all_ms":      "ms",
	"loadgen.fail_share":          "share",
	"ddclient.do_ns":              "ns",
	"ddclient.window_block_share": "share",
	"trace.overhead_share":        "share",
	"epidemic.copies_per_key":     "count",
	"epidemic.visible_p50_us":     "us",
	"epidemic.visible_late_share": "share",
	"transport.mailbox_depth_max": "count",
	"transport.envelopes_per_op":  "count",
	"transport.dropped":           "count",
	"transport.unknown_tags":      "count",
	"server.inflight_max":         "count",
	"server.timeouts":             "count",
	"server.busy":                 "count",
	"server.errors":               "count",
	"server.get_srv_p50_us":       "us",
	"server.put_srv_p50_us":       "us",
	"server.client_gap_us":        "us",
	"server.ping_rtt_us":          "us",
	"server.len_rtt_us":           "us",
	"server.driver_wait_us":       "us",
	"server.get_rtt_us":           "us",
	"server.put_rtt_us":           "us",
}
