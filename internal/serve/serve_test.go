package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vsnoop"
)

// fakeClock is a deterministic injected clock for quota tests.
type fakeClock struct{ ns atomic.Int64 }

func (c *fakeClock) now() time.Time          { return time.Unix(0, c.ns.Load()) }
func (c *fakeClock) advance(d time.Duration) { c.ns.Add(int64(d)) }
func newFakeClock(start time.Duration) *fakeClock {
	c := &fakeClock{}
	c.ns.Store(int64(start))
	return c
}

// quickConfig returns a config that simulates in tens of milliseconds.
func quickConfig(seed uint64) vsnoop.Config {
	cfg := vsnoop.DefaultConfig()
	cfg.RefsPerVCPU = 800
	cfg.WarmupRefs = 100
	cfg.Seed = seed
	return cfg
}

// slowConfig returns a config that runs long enough to cancel mid-flight.
func slowConfig(seed uint64) vsnoop.Config {
	cfg := vsnoop.DefaultConfig()
	cfg.RefsPerVCPU = 200000
	cfg.WarmupRefs = 1000
	cfg.Seed = seed
	return cfg
}

func newTestServer(t *testing.T, dir string, mut func(*Options)) (*Server, *httptest.Server) {
	t.Helper()
	opts := Options{DataDir: dir, Workers: 2, QueueCap: 8, Now: newFakeClock(time.Hour).now}
	if mut != nil {
		mut(&opts)
	}
	s, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJob(t *testing.T, base string, body interface{}) (int, map[string]interface{}) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]interface{}
	json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out
}

func getJSON(t *testing.T, url string, out interface{}) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		json.NewDecoder(resp.Body).Decode(out)
	}
	return resp.StatusCode
}

// waitJob polls until the job reaches a terminal status.
func waitJob(t *testing.T, base, id string, timeout time.Duration) jobView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var v jobView
		code := getJSON(t, base+"/v1/jobs/"+id, &v)
		if code != http.StatusOK {
			t.Fatalf("GET job %s: %d", id, code)
		}
		switch v.Status {
		case statusDone, statusFailed, statusCanceled:
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q (%d/%d done)", id, v.Status, v.Done, v.Total)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func getRaw(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

func TestSubmitComputeAndServe(t *testing.T) {
	s, ts := newTestServer(t, t.TempDir(), nil)
	defer s.Close()
	cfg := quickConfig(42)

	code, resp := postJob(t, ts.URL, jobRequest{Config: &cfg})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d (%v)", code, resp)
	}
	id := resp["id"].(string)
	v := waitJob(t, ts.URL, id, 30*time.Second)
	if v.Status != statusDone || v.Done != 1 {
		t.Fatalf("job = %+v", v)
	}
	if v.Outcomes[0].State != cfgComputed {
		t.Fatalf("outcome = %+v, want computed", v.Outcomes[0])
	}

	// The served result matches a direct in-process run.
	code, body := getRaw(t, ts.URL+"/v1/results/"+cfg.Hash())
	if code != http.StatusOK {
		t.Fatalf("GET result: %d", code)
	}
	var rec Record
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatal(err)
	}
	direct, err := vsnoop.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Result.ExecCycles != direct.ExecCycles ||
		rec.Result.SnoopsPerTransaction != direct.SnoopsPerTransaction ||
		rec.Result.Transactions != direct.Transactions {
		t.Fatalf("served result diverges from direct run:\nserved: %+v\ndirect: %+v",
			rec.Result, direct)
	}

	// Byte-identical re-serve.
	_, again := getRaw(t, ts.URL+"/v1/results/"+cfg.Hash())
	if !bytes.Equal(body, again) {
		t.Fatal("two GETs of the same result returned different bytes")
	}

	// A second job for the same config is memoized, not recomputed.
	code, resp = postJob(t, ts.URL, jobRequest{Config: &cfg})
	if code != http.StatusAccepted {
		t.Fatalf("resubmit: %d", code)
	}
	v = waitJob(t, ts.URL, resp["id"].(string), 10*time.Second)
	if v.Outcomes[0].State != cfgMemoized {
		t.Fatalf("second run outcome = %+v, want memoized", v.Outcomes[0])
	}
	if got := s.metrics.configsComputed.Load(); got != 1 {
		t.Fatalf("configsComputed = %d, want 1", got)
	}
}

func TestSweepExpansionAndOrder(t *testing.T) {
	s, ts := newTestServer(t, t.TempDir(), nil)
	defer s.Close()
	base := quickConfig(1)
	code, resp := postJob(t, ts.URL, jobRequest{Sweep: &sweepSpec{
		Config: base,
		Seeds:  []uint64{1, 2, 3},
	}})
	if code != http.StatusAccepted {
		t.Fatalf("submit sweep: %d (%v)", code, resp)
	}
	if n := int(resp["total"].(float64)); n != 3 {
		t.Fatalf("total = %d, want 3", n)
	}
	v := waitJob(t, ts.URL, resp["id"].(string), 60*time.Second)
	if v.Status != statusDone || v.Done != 3 {
		t.Fatalf("sweep job = %+v", v)
	}
	// Expansion order is deterministic: seeds in request order.
	for i, seed := range []uint64{1, 2, 3} {
		want := quickConfig(seed)
		if v.Outcomes[i].Hash != want.Hash() {
			t.Fatalf("outcome %d hash mismatch", i)
		}
	}
}

func TestBadRequests(t *testing.T) {
	s, ts := newTestServer(t, t.TempDir(), nil)
	defer s.Close()
	// Neither config nor sweep.
	code, _ := postJob(t, ts.URL, jobRequest{})
	if code != http.StatusBadRequest {
		t.Fatalf("empty request: %d, want 400", code)
	}
	// Unknown workload fails Validate.
	bad := quickConfig(1)
	bad.Workload = "no-such-workload"
	code, _ = postJob(t, ts.URL, jobRequest{Config: &bad})
	if code != http.StatusBadRequest {
		t.Fatalf("invalid config: %d, want 400", code)
	}
	// Malformed hash.
	code, _ = getRaw(t, ts.URL+"/v1/results/nothex")
	if code != http.StatusBadRequest {
		t.Fatalf("bad hash: %d, want 400", code)
	}
	// Unknown but well-formed hash.
	code, _ = getRaw(t, ts.URL+"/v1/results/"+strings.Repeat("ab", 32))
	if code != http.StatusNotFound {
		t.Fatalf("missing result: %d, want 404", code)
	}
}

func TestQuotaShedsWithRetryAfter(t *testing.T) {
	clk := newFakeClock(time.Hour)
	s, ts := newTestServer(t, t.TempDir(), func(o *Options) {
		o.QuotaRate = 1 // one config per second
		o.QuotaBurst = 1
		o.Now = clk.now
	})
	defer s.Close()
	cfg := quickConfig(7)

	code, _ := postJob(t, ts.URL, jobRequest{Tenant: "alice", Config: &cfg})
	if code != http.StatusAccepted {
		t.Fatalf("first submit: %d", code)
	}
	// Bucket empty: immediate resubmit sheds with Retry-After.
	data, _ := json.Marshal(jobRequest{Tenant: "alice", Config: &cfg})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// Another tenant is unaffected.
	code, _ = postJob(t, ts.URL, jobRequest{Tenant: "bob", Config: &cfg})
	if code != http.StatusAccepted {
		t.Fatalf("other tenant: %d, want 202", code)
	}
	// After the bucket refills, alice is admitted again.
	clk.advance(2 * time.Second)
	code, _ = postJob(t, ts.URL, jobRequest{Tenant: "alice", Config: &cfg})
	if code != http.StatusAccepted {
		t.Fatalf("post-refill submit: %d, want 202", code)
	}
	if s.metrics.jobsShedQuota.Load() == 0 {
		t.Fatal("quota shed not counted")
	}
}

func TestJobTableBackpressure(t *testing.T) {
	s, ts := newTestServer(t, t.TempDir(), func(o *Options) {
		o.Workers = 1
		o.MaxJobs = 2
	})
	defer s.Close()
	slow := slowConfig(1)
	code, r1 := postJob(t, ts.URL, jobRequest{Config: &slow})
	if code != http.StatusAccepted {
		t.Fatalf("job 1: %d", code)
	}
	slow2 := slowConfig(2)
	code, r2 := postJob(t, ts.URL, jobRequest{Config: &slow2})
	if code != http.StatusAccepted {
		t.Fatalf("job 2: %d", code)
	}
	// Both jobs live, table full: deterministic shed.
	slow3 := slowConfig(3)
	data, _ := json.Marshal(jobRequest{Config: &slow3})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full table submit: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if s.metrics.jobsShedQueue.Load() == 0 {
		t.Fatal("queue shed not counted")
	}
	// Cancel both; the canceled runs must terminate promptly.
	for _, r := range []map[string]interface{}{r1, r2} {
		id := r["id"].(string)
		req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs/"+id+"/cancel", nil)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
		v := waitJob(t, ts.URL, id, 30*time.Second)
		if v.Status != statusCanceled {
			t.Fatalf("job %s = %q, want canceled", id, v.Status)
		}
	}
}

func TestHealthReadyMetrics(t *testing.T) {
	s, ts := newTestServer(t, t.TempDir(), nil)
	if code, _ := getRaw(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if code, _ := getRaw(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("readyz: %d", code)
	}
	code, body := getRaw(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	for _, name := range []string{
		"vsnoop_jobs_accepted_total", "vsnoop_jobs_shed_queue_total",
		"vsnoop_queue_depth", "vsnoop_configs_replayed_total",
		"vsnoop_engine_events_total", "vsnoop_engine_sync_windows_total",
	} {
		if !bytes.Contains(body, []byte(name)) {
			t.Errorf("metrics missing %s", name)
		}
	}
	s.Close()
	if code, _ := getRaw(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz after Close: %d, want 503", code)
	}
}

// TestJournalTornTail: a crash mid-append leaves a torn line; reopening
// truncates it and keeps every intact record.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/journal"
	j, recs, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal has %d records", len(recs))
	}
	if err := j.append(record{Op: opJob, ID: "j-000001"}); err != nil {
		t.Fatal(err)
	}
	if err := j.append(record{Op: opEnd, ID: "j-000001", Status: statusDone}); err != nil {
		t.Fatal(err)
	}
	j.closeFile()
	// Simulate a torn write: half a line, no newline, bad checksum.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`deadbeef {"op":"job","id":"j-0000`)
	f.Close()
	_, recs, err = openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].ID != "j-000001" || recs[1].Op != opEnd {
		t.Fatalf("replayed %d records: %+v", len(recs), recs)
	}
}

// TestCrashResumeBitIdentical is the acceptance test from the issue: kill
// the server (Abort freezes persistence exactly as kill -9 would) after
// some configs of a sweep completed, restart on the same data directory,
// and require (a) the recovered job to finish, (b) completed configs to be
// served from the store without recomputation, and (c) every result byte
// to equal an uninterrupted golden run's.
func TestCrashResumeBitIdentical(t *testing.T) {
	seeds := []uint64{11, 12, 13, 14, 15, 16}
	base := quickConfig(0)
	sweep := &sweepSpec{Config: base, Seeds: seeds}
	var hashes []string
	for _, cfg := range sweep.expand() {
		hashes = append(hashes, cfg.Hash())
	}

	// Golden: an uninterrupted run in its own data dir.
	golden := make(map[string][]byte)
	{
		s, ts := newTestServer(t, t.TempDir(), nil)
		code, resp := postJob(t, ts.URL, jobRequest{Sweep: sweep})
		if code != http.StatusAccepted {
			t.Fatalf("golden submit: %d", code)
		}
		v := waitJob(t, ts.URL, resp["id"].(string), 120*time.Second)
		if v.Status != statusDone {
			t.Fatalf("golden job: %+v", v)
		}
		for _, h := range hashes {
			code, body := getRaw(t, ts.URL+"/v1/results/"+h)
			if code != http.StatusOK {
				t.Fatalf("golden GET %s: %d", h, code)
			}
			golden[h] = body
		}
		s.Close()
	}

	// Interrupted: same sweep, crash mid-flight.
	dir := t.TempDir()
	var jobID string
	var doneBeforeCrash int
	{
		s, ts := newTestServer(t, dir, func(o *Options) { o.Workers = 1 })
		code, resp := postJob(t, ts.URL, jobRequest{Sweep: sweep})
		if code != http.StatusAccepted {
			t.Fatalf("submit: %d", code)
		}
		jobID = resp["id"].(string)
		// Wait until at least two configs completed, then "kill -9".
		deadline := time.Now().Add(60 * time.Second)
		for {
			var v jobView
			getJSON(t, ts.URL+"/v1/jobs/"+jobID, &v)
			if v.Done >= 2 {
				doneBeforeCrash = v.Done
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("no configs completed before crash point")
			}
			time.Sleep(5 * time.Millisecond)
		}
		s.Abort()
	}

	// Restart on the same directory: the journal resurrects the job.
	{
		s, ts := newTestServer(t, dir, nil)
		defer s.Close()
		v := waitJob(t, ts.URL, jobID, 120*time.Second)
		if v.Status != statusDone || v.Done != len(seeds) {
			t.Fatalf("recovered job: %+v", v)
		}
		replayed, computed := 0, 0
		for _, o := range v.Outcomes {
			switch o.State {
			case cfgReplayed:
				replayed++
			case cfgComputed, cfgMemoized:
				computed++
			default:
				t.Fatalf("unexpected outcome %+v", o)
			}
		}
		if replayed == 0 {
			t.Fatalf("nothing replayed (done before crash: %d)", doneBeforeCrash)
		}
		if computed == 0 {
			t.Fatal("nothing computed after restart: crash happened too late")
		}
		if s.metrics.configsReplayed.Load() == 0 {
			t.Fatal("replay counter is zero")
		}
		// Every result — replayed or freshly computed — is byte-identical
		// to the uninterrupted golden run.
		for _, h := range hashes {
			code, body := getRaw(t, ts.URL+"/v1/results/"+h)
			if code != http.StatusOK {
				t.Fatalf("GET %s after recovery: %d", h, code)
			}
			if !bytes.Equal(body, golden[h]) {
				t.Fatalf("result %s differs from the uninterrupted run", h)
			}
		}
	}
}

// TestSoakConcurrentClients hammers the server with concurrent submitters
// and cancelers; run under -race in CI. It asserts liveness (every job
// reaches a terminal state), bounded-memory accounting, and a healthy
// metrics endpoint afterwards.
func TestSoakConcurrentClients(t *testing.T) {
	clients, perClient := 8, 6
	if testing.Short() {
		clients, perClient = 4, 3
	}
	s, ts := newTestServer(t, t.TempDir(), func(o *Options) {
		o.Workers = 4
		o.QueueCap = 4
		o.MaxJobs = 16
	})
	defer s.Close()

	var mu sync.Mutex
	var ids []string
	var accepted, shed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				cfg := quickConfig(uint64(1000 + c*perClient + i))
				if i%3 == 0 {
					cfg = quickConfig(uint64(1000 + i)) // duplicates: singleflight + memoization
				}
				data, _ := json.Marshal(jobRequest{Tenant: fmt.Sprintf("t%d", c), Config: &cfg})
				resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(data))
				if err != nil {
					t.Error(err)
					return
				}
				var out map[string]interface{}
				json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusAccepted:
					accepted.Add(1)
					id := out["id"].(string)
					mu.Lock()
					ids = append(ids, id)
					mu.Unlock()
					if i%4 == 1 { // forced cancellations
						req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs/"+id+"/cancel", nil)
						if r2, err := http.DefaultClient.Do(req); err == nil {
							r2.Body.Close()
						}
					}
				case http.StatusTooManyRequests:
					shed.Add(1)
				default:
					t.Errorf("submit: unexpected %d", resp.StatusCode)
				}
			}
		}()
	}
	wg.Wait()
	if accepted.Load() == 0 {
		t.Fatal("soak accepted nothing")
	}
	// Liveness: every accepted job terminates. (Evicted jobs 404 — fine.)
	deadline := time.Now().Add(120 * time.Second)
	for _, id := range ids {
		for {
			var v jobView
			code := getJSON(t, ts.URL+"/v1/jobs/"+id, &v)
			if code == http.StatusNotFound ||
				v.Status == statusDone || v.Status == statusFailed || v.Status == statusCanceled {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s never terminated (%+v)", id, v)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	if code, _ := getRaw(t, ts.URL+"/metrics"); code != http.StatusOK {
		t.Fatalf("metrics after soak: %d", code)
	}
	t.Logf("soak: accepted=%d shed=%d computed=%d memoized=%d",
		accepted.Load(), shed.Load(),
		s.metrics.configsComputed.Load(), s.metrics.configsMemoized.Load())
}

// TestStoreGCSkipsReferenced exercises the eviction policy at the store
// level: oldest-first victim selection that never touches a hash a live
// job still references.
func TestStoreGCSkipsReferenced(t *testing.T) {
	st, err := openStore(t.TempDir()+"/results", 1)
	if err != nil {
		t.Fatal(err)
	}
	h := func(c byte) string { return strings.Repeat(string(c), 64) }
	for _, c := range []byte{'1', '2', '3'} {
		if err := st.put(Record{Hash: h(c), Result: &vsnoop.Result{}}); err != nil {
			t.Fatal(err)
		}
	}
	one := st.sizes[h('1')]
	if one == 0 {
		t.Fatal("record size not accounted")
	}
	st.maxBytes = 2 * one
	// Oldest (h1) is referenced: the GC must step over it and evict h2.
	st.gc(map[string]bool{h('1'): true})
	if _, err := os.Stat(st.path(h('1'))); err != nil {
		t.Fatalf("referenced oldest record was evicted: %v", err)
	}
	if _, err := os.Stat(st.path(h('2'))); !os.IsNotExist(err) {
		t.Fatal("oldest unreferenced record survived GC")
	}
	if _, err := os.Stat(st.path(h('3'))); err != nil {
		t.Fatalf("newest record was evicted: %v", err)
	}
	if got := st.evictions.Load(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if st.bytes() != 2*one {
		t.Fatalf("accounted bytes = %d, want %d", st.bytes(), 2*one)
	}
}

// TestStoreGCEvictsOldestUnreferenced is the end-to-end satellite test: a
// size-bounded server evicts the oldest finished results as new ones are
// computed, exposes the eviction counter on /metrics, and recomputes an
// evicted result bit-identically on the next request (determinism makes
// eviction a pure cache decision).
func TestStoreGCEvictsOldestUnreferenced(t *testing.T) {
	first := quickConfig(21)
	res, err := vsnoop.Run(first)
	if err != nil {
		t.Fatal(err)
	}
	rec := normalizeRecord(first, res)
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	// Room for ~3.5 records: five sequential jobs must force evictions.
	limit := 7 * int64(len(data)+1) / 2

	s, ts := newTestServer(t, t.TempDir(), func(o *Options) {
		o.Workers = 1
		o.StoreMaxBytes = limit
	})
	defer s.Close()

	var firstServed []byte
	for _, sd := range []uint64{21, 22, 23, 24, 25} {
		cfg := quickConfig(sd)
		code, resp := postJob(t, ts.URL, jobRequest{Config: &cfg})
		if code != http.StatusAccepted {
			t.Fatalf("seed %d submit: %d", sd, code)
		}
		v := waitJob(t, ts.URL, resp["id"].(string), 60*time.Second)
		if v.Status != statusDone {
			t.Fatalf("seed %d job: %+v", sd, v)
		}
		if sd == 21 {
			if code, body := getRaw(t, ts.URL+"/v1/results/"+cfg.Hash()); code == http.StatusOK {
				firstServed = body
			} else {
				t.Fatalf("GET fresh result: %d", code)
			}
		}
	}
	if code, _ := getRaw(t, ts.URL+"/v1/results/"+first.Hash()); code != http.StatusNotFound {
		t.Fatalf("oldest result after five jobs: %d, want 404 (evicted)", code)
	}
	if code, _ := getRaw(t, ts.URL+"/v1/results/"+quickConfig(25).Hash()); code != http.StatusOK {
		t.Fatalf("newest result: %d, want 200", code)
	}
	if s.store.evictions.Load() == 0 {
		t.Fatal("no evictions counted")
	}
	if b := s.store.bytes(); b > limit {
		t.Fatalf("store holds %d bytes, bound is %d", b, limit)
	}
	_, mb := getRaw(t, ts.URL+"/metrics")
	for _, name := range []string{"vsnoop_store_evictions_total", "vsnoop_store_bytes"} {
		if !bytes.Contains(mb, []byte(name)) {
			t.Errorf("metrics missing %s", name)
		}
	}

	// The evicted config recomputes — and serves the exact bytes the first
	// computation served.
	code, resp := postJob(t, ts.URL, jobRequest{Config: &first})
	if code != http.StatusAccepted {
		t.Fatalf("resubmit: %d", code)
	}
	v := waitJob(t, ts.URL, resp["id"].(string), 60*time.Second)
	if v.Outcomes[0].State != cfgComputed {
		t.Fatalf("evicted config outcome = %+v, want computed", v.Outcomes[0])
	}
	_, again := getRaw(t, ts.URL+"/v1/results/"+first.Hash())
	if !bytes.Equal(firstServed, again) {
		t.Fatal("recomputed result differs from the originally served bytes")
	}
}

// TestStoreGCStartupRecovery covers the crash-during-eviction story: a
// crash can leave the store oversized (evictions stopped mid-batch) and
// can leave a .tmp from an interrupted write. Each eviction is one atomic
// unlink, so restart recovery is a pure directory scan: temp files are
// dropped, accounting is rebuilt from what survived, and the first GC
// trims back under the bound oldest-mtime-first.
func TestStoreGCStartupRecovery(t *testing.T) {
	dir := t.TempDir()
	results := dir + "/results"
	if err := os.MkdirAll(results, 0o755); err != nil {
		t.Fatal(err)
	}
	h := func(c byte) string { return strings.Repeat(string(c), 64) }
	body := bytes.Repeat([]byte("x"), 1000)
	for i, c := range []byte{'1', '2', '3', '4'} {
		p := results + "/" + h(c) + ".json"
		if err := os.WriteFile(p, body, 0o644); err != nil {
			t.Fatal(err)
		}
		// Pin distinct mtimes so the scan's oldest-first order is exact.
		mt := time.Unix(1_700_000_000+int64(i), 0)
		if err := os.Chtimes(p, mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	stray := results + "/" + h('5') + ".json.tmp"
	if err := os.WriteFile(stray, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	s, ts := newTestServer(t, dir, func(o *Options) { o.StoreMaxBytes = 2500 })
	defer s.Close()
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatal("interrupted-write temp file survived restart")
	}
	for _, c := range []byte{'1', '2'} {
		if code, _ := getRaw(t, ts.URL+"/v1/results/"+h(c)); code != http.StatusNotFound {
			t.Fatalf("oldest record %c: %d, want 404 (trimmed at startup)", c, code)
		}
	}
	for _, c := range []byte{'3', '4'} {
		code, got := getRaw(t, ts.URL+"/v1/results/"+h(c))
		if code != http.StatusOK || !bytes.Equal(got, body) {
			t.Fatalf("surviving record %c: code %d, bytes equal %v", c, code, bytes.Equal(got, body))
		}
	}
	if got := s.store.evictions.Load(); got != 2 {
		t.Fatalf("startup evictions = %d, want 2", got)
	}
	if got := s.store.bytes(); got != 2000 {
		t.Fatalf("accounted bytes = %d, want 2000", got)
	}
}

// TestModeOverrideBitIdentical: a server forcing -mode windowed stores and
// serves exactly the bytes a mode-less computation produces — Mode is an
// execution mechanic outside the hash and the normalized record.
func TestModeOverrideBitIdentical(t *testing.T) {
	cfg := quickConfig(51)
	s, ts := newTestServer(t, t.TempDir(), func(o *Options) {
		o.Mode = "windowed"
		o.Shards = 4
	})
	defer s.Close()
	code, resp := postJob(t, ts.URL, jobRequest{Config: &cfg})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	v := waitJob(t, ts.URL, resp["id"].(string), 60*time.Second)
	if v.Status != statusDone || v.Outcomes[0].State != cfgComputed {
		t.Fatalf("job: %+v", v)
	}
	code, body := getRaw(t, ts.URL+"/v1/results/"+cfg.Hash())
	if code != http.StatusOK {
		t.Fatalf("GET result: %d", code)
	}
	res, err := vsnoop.Run(cfg) // serial, historical dispatch
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(normalizeRecord(cfg, res), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, append(want, '\n')) {
		t.Fatal("windowed-forced server result differs from a serial run's record")
	}
}

// TestReplayClearsRemovedModes: a journal written before the optimistic
// engine was removed can hold an unfinished job whose configs carry
// "Mode":"timewarp" or "Mode":"auto", values Validate now rejects. The
// restarted server must clear Mode on replay, finish the job, and serve
// exactly the bytes a fresh run produces.
func TestReplayClearsRemovedModes(t *testing.T) {
	dir := t.TempDir()
	var configs []vsnoop.Config
	var hashes []string
	for i, mode := range []string{"timewarp", "auto"} {
		cfg := quickConfig(uint64(61 + i))
		cfg.Shards = 2
		cfg.Mode = mode
		configs = append(configs, cfg)
		hashes = append(hashes, cfg.Hash())
	}
	payload, err := json.Marshal(record{Op: opJob, ID: "j-000007", Tenant: "t", Configs: configs, Hashes: hashes})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(payload, []byte(`"Mode":"timewarp"`)) || !bytes.Contains(payload, []byte(`"Mode":"auto"`)) {
		t.Fatalf("journal record does not carry the removed modes: %s", payload)
	}
	line := fmt.Sprintf("%08x %s\n", crc32.ChecksumIEEE(payload), payload)
	if err := os.WriteFile(dir+"/journal", []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}

	s, ts := newTestServer(t, dir, nil)
	defer s.Close()
	v := waitJob(t, ts.URL, "j-000007", 60*time.Second)
	if v.Status != statusDone || v.Done != len(configs) {
		t.Fatalf("recovered job: %+v", v)
	}
	for i, o := range v.Outcomes {
		if o.State != cfgComputed {
			t.Fatalf("config %d: outcome %+v", i, o)
		}
	}
	for i, cfg := range configs {
		cfg.Mode = ""
		res, err := vsnoop.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.MarshalIndent(normalizeRecord(cfg, res), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		code, body := getRaw(t, ts.URL+"/v1/results/"+hashes[i])
		if code != http.StatusOK || !bytes.Equal(body, append(want, '\n')) {
			t.Fatalf("config %d: GET %d, bytes equal to a fresh run %v", i, code, bytes.Equal(body, append(want, '\n')))
		}
	}
}
