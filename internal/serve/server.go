package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"vsnoop"
	"vsnoop/internal/runner"
)

// Options configures a Server. Zero values select the documented defaults.
type Options struct {
	// DataDir holds the journal and the result store. Required.
	DataDir string
	// Workers is the number of concurrent jobs (default 2). Each job runs
	// its configs sequentially; a config may itself be shard-parallel.
	Workers int
	// QueueCap bounds jobs accepted but not yet running (default 64). A
	// full queue sheds with 429 + Retry-After — this is the memory bound.
	QueueCap int
	// QuotaRate / QuotaBurst configure per-tenant token buckets in units
	// of configs (rate per second). QuotaRate <= 0 disables quotas.
	QuotaRate  float64
	QuotaBurst float64
	// MaxBodyBytes bounds request bodies (default 1 MiB).
	MaxBodyBytes int64
	// MaxConfigsPerJob bounds sweep expansion (default 1024).
	MaxConfigsPerJob int
	// MaxJobs bounds the in-memory job table (default 4096). When full,
	// the oldest finished job is evicted; if every job is live, submission
	// sheds.
	MaxJobs int
	// Shards overrides Config.Shards on every submitted config (0 leaves
	// requests as-is). The hash ignores it, so this never affects results.
	Shards int
	// Mode overrides Config.Mode on every submitted config ("" leaves
	// requests as-is): adaptive or windowed. Like Shards it is an
	// execution mechanic the hash ignores — results are bit-identical
	// across modes — so forcing it never affects stored records.
	Mode string
	// StoreMaxBytes bounds the content-addressed result store; past it the
	// oldest unreferenced records are evicted (0 = unbounded). Evicted
	// results recompute bit-identically on the next request.
	StoreMaxBytes int64
	// Now is the clock (required): the daemon passes time.Now, tests pass
	// a fake. The serve package never reads ambient time itself.
	Now func() time.Time
}

func (o *Options) withDefaults() error {
	if o.DataDir == "" {
		return fmt.Errorf("serve: Options.DataDir is required")
	}
	if o.Now == nil {
		return fmt.Errorf("serve: Options.Now is required (inject time.Now)")
	}
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 64
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 1 << 20
	}
	if o.MaxConfigsPerJob <= 0 {
		o.MaxConfigsPerJob = 1024
	}
	if o.MaxJobs <= 0 {
		o.MaxJobs = 4096
	}
	probe := vsnoop.DefaultConfig()
	probe.Mode = o.Mode
	if err := probe.Validate(); err != nil {
		return fmt.Errorf("serve: Options.Mode: %w", err)
	}
	return nil
}

// Server is the vsnoop simulation service. Create with New, expose
// Handler() via an http.Server, stop with Close (graceful: cancels
// in-flight jobs, drains the pool) or Abort (simulated kill -9 for crash
// tests: freezes all persistence at the current instant).
type Server struct {
	opts    Options
	now     func() time.Time
	pool    *runner.Pool
	quota   *quotaTable
	journal *journal
	store   *store
	metrics *metrics

	rootCtx  context.Context
	rootStop context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*jobState // lookup only; iteration uses jobOrder
	jobOrder []string
	seq      uint64
	closed   bool

	fmu     sync.Mutex
	flights map[string]chan struct{}
}

// New opens the data directory, replays the journal, resubmits unfinished
// jobs, compacts the journal, and returns a ready server.
func New(opts Options) (*Server, error) {
	if err := opts.withDefaults(); err != nil {
		return nil, err
	}
	st, err := openStore(filepath.Join(opts.DataDir, "results"), opts.StoreMaxBytes)
	if err != nil {
		return nil, err
	}
	jn, recs, err := openJournal(filepath.Join(opts.DataDir, "journal"))
	if err != nil {
		return nil, err
	}
	ctx, stop := context.WithCancel(context.Background())
	s := &Server{
		opts:    opts,
		now:     opts.Now,
		quota:   newQuota(opts.QuotaRate, opts.QuotaBurst),
		journal: jn,
		store:   st,
		metrics: &metrics{},
		rootCtx: ctx, rootStop: stop,
		jobs:    make(map[string]*jobState),
		flights: make(map[string]chan struct{}),
	}
	unfinished := s.replay(recs)
	if err := s.compact(unfinished); err != nil {
		stop()
		return nil, err
	}
	// Size the queue to fit every recovered job plus the configured
	// capacity, so recovery never sheds its own backlog.
	s.pool = runner.NewPool(opts.Workers, opts.QueueCap+len(unfinished))
	for _, j := range unfinished {
		j := j
		s.pool.TrySubmit(func() { s.runJob(j) })
		s.metrics.jobsRecovered.Add(1)
	}
	// First GC pass: the replay above fixed which hashes recovered jobs
	// still reference, so a store left oversized by a crash (including one
	// mid-eviction) is trimmed back under the bound right away.
	st.gc(s.liveHashes())
	return s, nil
}

// liveHashes returns the result hashes that queued or running jobs still
// reference; the store GC never evicts these.
func (s *Server) liveHashes() map[string]bool {
	refs := make(map[string]bool)
	s.mu.Lock()
	for _, id := range s.jobOrder {
		j := s.jobs[id]
		if j.status == statusQueued || j.status == statusRunning {
			for _, h := range j.hashes {
				refs[h] = true
			}
		}
	}
	s.mu.Unlock()
	return refs
}

// replay rebuilds the job table from journal records and returns the
// unfinished jobs (accepted, no terminal record) in acceptance order.
func (s *Server) replay(recs []record) []*jobState {
	for _, r := range recs {
		switch r.Op {
		case opJob:
			if len(r.Configs) == 0 || len(r.Configs) != len(r.Hashes) {
				continue // malformed; skip defensively
			}
			// Mode is an execution mechanic outside the hash. Journals
			// written before the optimistic engine was removed may carry
			// its Mode values, which Validate now rejects, so clear it as
			// normalizeRecord does for stored records.
			for i := range r.Configs {
				r.Configs[i].Mode = ""
			}
			ctx, cancel := context.WithCancel(s.rootCtx)
			j := &jobState{
				id: r.ID, tenant: r.Tenant,
				configs: r.Configs, hashes: r.Hashes,
				status: statusQueued, recovered: true,
				outcomes: make([]outcome, len(r.Configs)),
				ctx:      ctx, cancelFn: cancel,
			}
			for i := range j.outcomes {
				j.outcomes[i] = outcome{Hash: r.Hashes[i], State: cfgPending}
			}
			s.jobs[r.ID] = j
			s.jobOrder = append(s.jobOrder, r.ID)
			if n := parseSeq(r.ID); n > s.seq {
				s.seq = n
			}
		case opCfg:
			j := s.jobs[r.ID]
			if j == nil {
				continue
			}
			for i := range j.outcomes {
				if j.outcomes[i].State != cfgPending || j.outcomes[i].Hash != r.Hash {
					continue
				}
				if r.Status == "ok" {
					// A cfg record follows the store write, but verify:
					// a missing file just means we recompute.
					if _, ok, _ := s.store.get(r.Hash); ok {
						j.outcomes[i].State = cfgReplayed
						j.done++
						s.metrics.configsReplayed.Add(1)
					}
				} else {
					j.outcomes[i].State = cfgFailed
					j.outcomes[i].Err = r.Err
					j.done++
				}
				break
			}
		case opEnd:
			j := s.jobs[r.ID]
			if j == nil {
				continue
			}
			j.status = r.Status
			for i := range j.outcomes {
				if j.outcomes[i].State == cfgPending {
					j.outcomes[i].State = cfgCanceled
					j.done++
				}
			}
			j.cancelFn()
		}
	}
	var unfinished []*jobState
	for _, id := range s.jobOrder {
		j := s.jobs[id]
		if j.status == statusQueued || j.status == statusRunning {
			unfinished = append(unfinished, j)
		}
	}
	return unfinished
}

// compact rewrites the journal to hold only the unfinished jobs' records.
// Finished jobs are forgotten across restarts (their results remain
// addressable in the store by hash); this bounds the journal.
func (s *Server) compact(unfinished []*jobState) error {
	var recs []record
	for _, j := range unfinished {
		recs = append(recs, record{
			Op: opJob, ID: j.id, Tenant: j.tenant,
			Configs: j.configs, Hashes: j.hashes,
		})
		for i := range j.outcomes {
			switch j.outcomes[i].State {
			case cfgReplayed, cfgMemoized, cfgComputed:
				recs = append(recs, record{Op: opCfg, ID: j.id, Hash: j.outcomes[i].Hash, Status: "ok"})
			case cfgFailed:
				recs = append(recs, record{Op: opCfg, ID: j.id, Hash: j.outcomes[i].Hash,
					Status: "failed", Err: j.outcomes[i].Err})
			}
		}
	}
	return s.journal.rewrite(recs)
}

func parseSeq(id string) uint64 {
	if len(id) < 3 || id[0] != 'j' || id[1] != '-' {
		return 0
	}
	n, err := strconv.ParseUint(id[2:], 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// Close shuts down gracefully: no new jobs, in-flight jobs canceled (and
// journaled as canceled), pool drained. Safe to call twice.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.rootStop()
	s.pool.Close()
	s.journal.closeFile()
}

// Abort simulates kill -9 for crash tests: all journal and store writes
// are suppressed from this instant, then everything stops. Because every
// persistence operation is individually crash-atomic (fsync'd appends,
// write-temp + rename), the on-disk state Abort leaves behind is exactly a
// state the real kill could have produced.
func (s *Server) Abort() {
	s.journal.freeze()
	s.store.freeze()
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.rootStop()
	s.pool.Close()
	s.journal.closeFile()
}

// Handler returns the HTTP API:
//
//	POST /v1/jobs             submit a config or sweep (202, 400, 429, 503)
//	GET  /v1/jobs/{id}        job status and per-config outcomes
//	POST /v1/jobs/{id}/cancel cancel a job
//	GET  /v1/results/{hash}   stored result, byte-identical across serves
//	GET  /healthz             liveness
//	GET  /readyz              readiness (503 once closed)
//	GET  /metrics             Prometheus text
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleJobCancel)
	mux.HandleFunc("GET /v1/results/{hash}", s.handleResult)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		http.Error(w, "shutting down", http.StatusServiceUnavailable)
		return
	}
	w.Write([]byte("ready\n"))
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.render(w, s.pool.Depth(), !closed, s.opts.Shards, s.opts.Mode,
		s.store.bytes(), s.store.evictions.Load())
}

// shed writes a 429 with Retry-After, the backpressure contract.
func shed(w http.ResponseWriter, retry time.Duration, msg string) {
	secs := int64(retry / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	http.Error(w, msg, http.StatusTooManyRequests)
}

func (s *Server) badRequest(w http.ResponseWriter, msg string) {
	s.metrics.badRequests.Add(1)
	http.Error(w, msg, http.StatusBadRequest)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	var req jobRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.badRequest(w, fmt.Sprintf("bad request body: %v", err))
		return
	}
	configs, err := expandRequest(&req)
	if err != nil {
		s.badRequest(w, err.Error())
		return
	}
	if len(configs) > s.opts.MaxConfigsPerJob {
		s.badRequest(w, fmt.Sprintf("sweep expands to %d configs (limit %d)",
			len(configs), s.opts.MaxConfigsPerJob))
		return
	}
	hashes := make([]string, len(configs))
	for i := range configs {
		if s.opts.Shards != 0 {
			configs[i].Shards = s.opts.Shards
		}
		if s.opts.Mode != "" {
			configs[i].Mode = s.opts.Mode
		}
		if err := configs[i].Validate(); err != nil {
			s.badRequest(w, fmt.Sprintf("config %d: %v", i, err))
			return
		}
		hashes[i] = configs[i].Hash()
	}
	tenant := req.Tenant
	if tenant == "" {
		tenant = r.Header.Get("X-Tenant")
	}
	if tenant == "" {
		tenant = "anon"
	}
	if ok, retry := s.quota.allow(tenant, s.now(), float64(len(configs))); !ok {
		s.metrics.jobsShedQuota.Add(1)
		shed(w, retry, fmt.Sprintf("tenant %q over quota", tenant))
		return
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		http.Error(w, "shutting down", http.StatusServiceUnavailable)
		return
	}
	if len(s.jobOrder) >= s.opts.MaxJobs && !s.evictFinishedLocked() {
		s.mu.Unlock()
		s.metrics.jobsShedQueue.Add(1)
		shed(w, 5*time.Second, "job table full")
		return
	}
	s.seq++
	id := fmt.Sprintf("j-%06d", s.seq)
	ctx, cancel := context.WithCancel(s.rootCtx)
	if req.TimeoutMs > 0 {
		ctx, cancel = context.WithTimeout(s.rootCtx, time.Duration(req.TimeoutMs)*time.Millisecond)
	}
	j := &jobState{
		id: id, tenant: tenant, configs: configs, hashes: hashes,
		status: statusQueued, outcomes: make([]outcome, len(configs)),
		ctx: ctx, cancelFn: cancel,
	}
	for i := range j.outcomes {
		j.outcomes[i] = outcome{Hash: hashes[i], State: cfgPending}
	}
	s.mu.Unlock()

	// Admission is durable before it is acknowledged: journal first, then
	// queue. A crash between the two resubmits the job at restart — safe,
	// because memoization absorbs duplicate execution.
	if err := s.journal.append(record{
		Op: opJob, ID: id, Tenant: tenant, Configs: configs, Hashes: hashes,
	}); err != nil {
		cancel()
		http.Error(w, fmt.Sprintf("journal: %v", err), http.StatusInternalServerError)
		return
	}
	s.metrics.journalRecords.Add(1)
	if !s.pool.TrySubmit(func() { s.runJob(j) }) {
		// Queue full: journal the shed so replay never resurrects the job.
		s.journalAppend(record{Op: opEnd, ID: id, Status: statusCanceled})
		cancel()
		s.metrics.jobsShedQueue.Add(1)
		shed(w, 2*time.Second, "job queue full")
		return
	}
	s.mu.Lock()
	s.jobs[id] = j
	s.jobOrder = append(s.jobOrder, id)
	s.mu.Unlock()
	s.metrics.jobsAccepted.Add(1)

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(map[string]interface{}{
		"id": id, "total": len(configs), "hashes": hashes,
	})
}

// evictFinishedLocked frees one slot by dropping the oldest finished job.
// Reports false when every job is still live (the table stays bounded by
// shedding instead).
func (s *Server) evictFinishedLocked() bool {
	for i, id := range s.jobOrder {
		j := s.jobs[id]
		if j.status == statusDone || j.status == statusFailed || j.status == statusCanceled {
			delete(s.jobs, id)
			s.jobOrder = append(s.jobOrder[:i], s.jobOrder[i+1:]...)
			return true
		}
	}
	return false
}

// jobView is the GET /v1/jobs/{id} response.
type jobView struct {
	ID       string    `json:"id"`
	Tenant   string    `json:"tenant"`
	Status   string    `json:"status"`
	Total    int       `json:"total"`
	Done     int       `json:"done"`
	Outcomes []outcome `json:"outcomes"`
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	var view jobView
	if ok {
		view = jobView{
			ID: j.id, Tenant: j.tenant, Status: j.status,
			Total: len(j.configs), Done: j.done,
			Outcomes: append([]outcome(nil), j.outcomes...),
		}
	}
	s.mu.Unlock()
	if !ok {
		http.Error(w, "unknown job", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(view)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		http.Error(w, "unknown job", http.StatusNotFound)
		return
	}
	j.cancelFn()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]string{"id": j.id, "status": "canceling"})
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	if !validHash(hash) {
		s.badRequest(w, "malformed hash")
		return
	}
	data, ok, err := s.store.raw(hash)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if !ok {
		http.Error(w, "no result for hash", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// Hash re-exports the canonical config hash for CLI convenience.
func Hash(cfg vsnoop.Config) string { return cfg.Hash() }
