package serve

import (
	"fmt"
	"io"
	"sync/atomic"

	"vsnoop"
)

// metrics holds the server's self-observation counters. All fields are
// atomics written from handler and worker goroutines; render reads them
// without locks (staleness across counters is acceptable for a scrape).
type metrics struct {
	jobsAccepted  atomic.Uint64 // 202s issued
	jobsShedQueue atomic.Uint64 // 429s from a full queue
	jobsShedQuota atomic.Uint64 // 429s from tenant quotas
	jobsDone      atomic.Uint64
	jobsFailed    atomic.Uint64
	jobsCanceled  atomic.Uint64

	configsComputed atomic.Uint64 // simulations actually run
	configsMemoized atomic.Uint64 // served from the store without running
	configsReplayed atomic.Uint64 // store hits during post-crash job replay
	configsFailed   atomic.Uint64

	journalRecords atomic.Uint64 // records appended this process
	jobsRecovered  atomic.Uint64 // unfinished jobs resubmitted at startup
	badRequests    atomic.Uint64
}

// render writes the Prometheus text exposition. Engine-level totals come
// from the simulator's process-wide counters (vsnoop.TotalEventsFired,
// vsnoop.TotalSyncCounters); queueDepth and ready are sampled by the
// caller.
func (m *metrics) render(w io.Writer, queueDepth int, ready bool, shards int,
	mode string, storeBytes int64, storeEvictions uint64) {
	c := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	g := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	c("vsnoop_jobs_accepted_total", "Jobs admitted (202).", m.jobsAccepted.Load())
	c("vsnoop_jobs_shed_queue_total", "Jobs shed with 429: queue full.", m.jobsShedQueue.Load())
	c("vsnoop_jobs_shed_quota_total", "Jobs shed with 429: tenant quota.", m.jobsShedQuota.Load())
	c("vsnoop_jobs_done_total", "Jobs finished successfully.", m.jobsDone.Load())
	c("vsnoop_jobs_failed_total", "Jobs finished with config failures.", m.jobsFailed.Load())
	c("vsnoop_jobs_canceled_total", "Jobs canceled or deadline-exceeded.", m.jobsCanceled.Load())
	c("vsnoop_configs_computed_total", "Simulations executed.", m.configsComputed.Load())
	c("vsnoop_configs_memoized_total", "Configs served from the content-addressed store.", m.configsMemoized.Load())
	c("vsnoop_configs_replayed_total", "Store hits while replaying jobs after a restart.", m.configsReplayed.Load())
	c("vsnoop_configs_failed_total", "Configs that failed to simulate.", m.configsFailed.Load())
	c("vsnoop_journal_records_total", "Journal records appended this process.", m.journalRecords.Load())
	c("vsnoop_jobs_recovered_total", "Unfinished jobs resubmitted at startup.", m.jobsRecovered.Load())
	c("vsnoop_bad_requests_total", "Requests rejected with 4xx before admission.", m.badRequests.Load())
	g("vsnoop_queue_depth", "Jobs queued but not yet running.", uint64(queueDepth))
	rd := uint64(0)
	if ready {
		rd = 1
	}
	g("vsnoop_ready", "1 when the server is accepting jobs.", rd)
	g("vsnoop_shards", "Event-queue shards forced per run (planner-resolved when -shards is auto; 0 honors each request).",
		uint64(shards))
	if mode == "" {
		mode = "request"
	}
	fmt.Fprintf(w, "# HELP vsnoop_mode Synchronization engine forced per run (\"request\" honors each request).\n"+
		"# TYPE vsnoop_mode gauge\nvsnoop_mode{mode=%q} 1\n", mode)
	c("vsnoop_store_evictions_total", "Results evicted from the size-bounded store.", storeEvictions)
	g("vsnoop_store_bytes", "Bytes held by the content-addressed result store.", uint64(storeBytes))

	c("vsnoop_engine_events_total", "Simulator events executed by every run in this process.",
		vsnoop.TotalEventsFired())
	windows, elided, waits, widthSum, _ := vsnoop.TotalSyncCounters()
	c("vsnoop_engine_sync_windows_total", "Sharded-engine synchronization windows.", windows)
	c("vsnoop_engine_sync_elided_barriers_total", "Quiet-window exchange barriers elided.", elided)
	c("vsnoop_engine_sync_barrier_waits_total", "Shard arrivals at synchronization barriers.", waits)
	c("vsnoop_engine_sync_window_width_cycles_total", "Sum of window widths in cycles.", widthSum)
}
