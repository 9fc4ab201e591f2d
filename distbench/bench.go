package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"distlap/internal/core"
	"distlap/internal/service"
)

// options configures one benchmark run.
type options struct {
	seed     int64
	duration time.Duration // timed phase; a traced run splits it in two
	traced   bool
	log      io.Writer
	minOps   int // overrides the workload's minimum timed requests when > 0
}

// bench is one run's state: the server under test and the request source.
type bench struct {
	w   *workload
	fx  fixture
	h   http.Handler
	log io.Writer

	rng  *rand.Rand // draws the requests, in request order
	next int        // index of the next request

	tally    tally // what the benchmark sent and was answered, since set-up
	errLines int   // failure lines written to log so far
}

// tally is the benchmark's own account of the server's work, compared
// against the server's /metrics counters after the run.
type tally struct {
	sent         map[string]int64 // requests by endpoint label
	rounds       map[string]int64 // engine rounds answered, by endpoint
	messages     map[string]int64 // engine messages answered, by endpoint
	msgsReported map[string]bool  // whether responses report messages
	lookups      int64            // instance-cache lookups made
	evicted      int64            // evicted ids returned by loads
}

func newTally() tally {
	return tally{sent: map[string]int64{}, rounds: map[string]int64{},
		messages: map[string]int64{}, msgsReported: map[string]bool{}}
}

func (t *tally) add(endpoint string, ans answer) {
	t.rounds[endpoint] += ans.rounds
	if ans.messages >= 0 {
		t.messages[endpoint] += ans.messages
		t.msgsReported[endpoint] = true
	}
	t.evicted += ans.evicted
}

// serve sends one request through the handler and times ServeHTTP alone.
func serve(h http.Handler, method, path string, body []byte) (*httptest.ResponseRecorder, time.Time, time.Time) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rw := httptest.NewRecorder()
	start := time.Now()
	h.ServeHTTP(rw, req)
	return rw, start, time.Now()
}

// setup builds the server and sends the workload's set-up loads, reps
// times, each on a fresh server after a forced GC, and returns the median
// wall time. The last server stays as the one under test.
func (b *bench) setup() (float64, error) {
	loads := b.fx.setupLoads()
	bodies := make([][]byte, len(loads))
	for i, lr := range loads {
		_, body, err := lr.build()
		if err != nil {
			return 0, err
		}
		bodies[i] = body
	}
	times := make([]float64, b.w.setupReps)
	resps := make([]*httptest.ResponseRecorder, len(loads))
	for rep := range times {
		runtime.GC()
		start := time.Now()
		h := service.New(service.Config{CacheBytes: b.w.cacheBytes}).Handler()
		for i, body := range bodies {
			resps[i], _, _ = serve(h, http.MethodPost, "/v1/graphs", body)
		}
		times[rep] = time.Since(start).Seconds()
		b.h = h
	}
	b.tally = newTally()
	for i, rw := range resps {
		b.tally.sent["load"]++
		if rw.Code != http.StatusOK {
			return 0, fmt.Errorf("set-up load %s: status %d: %s", loads[i].id, rw.Code, rw.Body.Bytes())
		}
		ans, err := loads[i].check(rw.Body.Bytes())
		b.tally.add("load", ans)
		if err != nil {
			return 0, fmt.Errorf("set-up load %s: %w", loads[i].id, err)
		}
	}
	return median(times), nil
}

// phaseStats is what one closed-loop phase measured.
type phaseStats struct {
	attempted, failed int
	replayFailed      int
	replayMsgs        int64
	latencies         []time.Duration
	served            time.Duration // wall time of the served batches alone
	allocs            uint64        // heap bytes allocated while serving
	wall              time.Duration // the whole phase, benchmark work included
	spans             []span
}

func (p *phaseStats) ok() int { return p.attempted - p.failed }

// tracing configures a traced phase.
type tracing struct {
	rc   *replayCtx // the replay's prepared resident graph (nil for loads)
	base time.Time  // span time origin
	recs []*recorder
}

func newTracing(rc *replayCtx, base time.Time, ids *atomic.Int64, clients int) *tracing {
	tr := &tracing{rc: rc, base: base}
	for c := 0; c < clients; c++ {
		tr.recs = append(tr.recs, newRecorder(base, ids))
	}
	return tr
}

// job is one request of a batch: drawn and built before the batch is
// served, checked (and, traced, replayed) after.
type job struct {
	idx        int
	req        request
	path       string
	body       []byte
	rw         *httptest.ResponseRecorder
	start, end time.Time
	ans        answer
	err        error // build, status or oracle failure
	replayMsgs int64
	replayErr  error
}

// loop runs one closed-loop phase until stop (called with the number of
// requests issued so far in the phase) says it is over. It works in
// batches of w.batch requests: the benchmark draws and builds a batch's
// bodies, then w.clients goroutines serve it, each sending its next request
// when the previous reply is back, then the benchmark checks every answer
// and, with tr set, replays it one layer down. Only the serving is timed
// and counted in the allocated bytes, so benchmark-side work (input
// generation, JSON encoding of requests and decoding of responses, the
// oracle, the replay) never dilutes ops_per_s or alloc_mb_per_op.
func (b *bench) loop(stop func(issued int) bool, tr *tracing) phaseStats {
	var out phaseStats
	start := time.Now()
	for issued := 0; ; {
		batch := make([]*job, 0, b.w.batch)
		for len(batch) < b.w.batch && !stop(issued) {
			j := &job{idx: b.next, req: b.fx.draw(b.rng, b.next)}
			b.next++
			issued++
			j.path, j.body, j.err = j.req.build()
			batch = append(batch, j)
		}
		if len(batch) == 0 {
			break
		}
		b.serveBatch(batch, &out)
		b.checkBatch(batch, &out, tr)
	}
	out.wall = time.Since(start)
	if tr != nil {
		for _, rec := range tr.recs {
			out.spans = append(out.spans, rec.spans...)
			rec.spans = nil
		}
	}
	return out
}

// parallel runs do(c, j) for every job of batch on w.clients goroutines,
// each taking the next job when it is done with its last.
func (b *bench) parallel(batch []*job, do func(c int, j *job)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < b.w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(batch) {
					return
				}
				do(c, batch[i])
			}
		}(c)
	}
	wg.Wait()
}

// serveBatch sends the batch's built requests through the handler from
// the closed-loop clients, timing the batch and counting its allocations.
func (b *bench) serveBatch(batch []*job, out *phaseStats) {
	allocs0 := allocatedBytes()
	start := time.Now()
	b.parallel(batch, func(_ int, j *job) {
		if j.err == nil {
			j.rw, j.start, j.end = serve(b.h, http.MethodPost, j.path, j.body)
		}
	})
	out.served += time.Since(start)
	out.allocs += allocatedBytes() - allocs0
}

// checkBatch runs the oracle on every served answer, tallies what the
// server reported and, with tr set, replays the correct answers.
func (b *bench) checkBatch(batch []*job, out *phaseStats, tr *tracing) {
	ep := b.w.endpoint
	for _, j := range batch {
		out.attempted++
		if j.err != nil {
			continue
		}
		b.tally.sent[ep]++
		if ep != "load" {
			b.tally.lookups++
		}
		out.latencies = append(out.latencies, j.end.Sub(j.start))
		if j.rw.Code != http.StatusOK {
			j.err = fmt.Errorf("status %d: %s", j.rw.Code, bytes.TrimSpace(j.rw.Body.Bytes()))
			continue
		}
		j.ans, j.err = j.req.check(j.rw.Body.Bytes())
		if j.ans.resp != nil {
			b.tally.add(ep, j.ans)
		}
	}
	if tr != nil {
		b.parallel(batch, func(c int, j *job) {
			if j.err != nil {
				return
			}
			rec := tr.recs[c]
			rec.req = j.idx
			rec.add("service.request", j.start, j.end)
			j.replayMsgs, j.replayErr = j.req.replay(tr.rc, rec, j.body, j.ans)
		})
	}
	for _, j := range batch {
		out.replayMsgs += j.replayMsgs
		switch {
		case j.err != nil:
			b.fail(out, j.idx, j.err)
		case j.replayErr != nil:
			out.replayFailed++
			b.fail(out, j.idx, fmt.Errorf("replay: %w", j.replayErr))
		}
	}
}

// maxErrorLines bounds the per-run failure lines written to the log.
const maxErrorLines = 5

func (b *bench) fail(st *phaseStats, idx int, err error) {
	st.failed++
	b.errLines++
	if b.errLines <= maxErrorLines {
		fmt.Fprintf(b.log, "distbench: %s request %d failed: %v\n", b.w.name, idx, err)
	}
}

func countStop(n int) func(int) bool { return func(issued int) bool { return issued >= n } }

// deadlineStop ends a phase once d has passed and at least minOps
// requests were issued, at a multiple of period requests.
func deadlineStop(d time.Duration, minOps, period int) func(int) bool {
	deadline := time.Now().Add(d)
	return func(issued int) bool {
		return issued >= minOps && issued%period == 0 && !time.Now().Before(deadline)
	}
}

// ---- runtime/metrics ----

func readUint(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// liveHeap forces a GC and returns the live heap it marked.
func liveHeap() uint64 {
	runtime.GC()
	return readUint("/gc/heap/live:bytes")
}

func allocatedBytes() uint64 { return readUint("/gc/heap/allocs:bytes") }

// probeInstance measures the live heap one prepared instance retains,
// graph included, around forced GCs, and its SizeBytes estimate. It takes
// the median of three prepares.
func probeInstance(lr *service.LoadRequest) (measured, estimate int64, err error) {
	sizes := make([]float64, 3)
	for i := range sizes {
		before := liveHeap()
		g, err := buildGraph(&lr.Graph)
		if err != nil {
			return 0, 0, err
		}
		in, err := core.PrepareInstance(context.Background(), g, prepareConfig(lr))
		if err != nil {
			return 0, 0, err
		}
		sizes[i] = float64(liveHeap()) - float64(before)
		estimate = in.SizeBytes()
		runtime.KeepAlive(in)
	}
	return int64(median(sizes)), estimate, nil
}

// ---- statistics ----

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
