package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// runWorkload runs one workload end to end: set-up, memory probe,
// deterministic warm-up, the timed phase (or, traced, an untraced and a
// traced half), and the /metrics cross-check.
func runWorkload(w *workload, o options) (*result, error) {
	rng := rand.New(rand.NewSource(o.seed))
	fx, err := w.newFixture(rng)
	if err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	b := &bench{w: w, fx: fx, rng: rng, log: o.log}
	setupS, err := b.setup()
	if err != nil {
		return nil, err
	}
	probe := fx.setupLoads()[0].lr
	instBytes, instEstimate, err := probeInstance(probe)
	if err != nil {
		return nil, fmt.Errorf("memory probe: %w", err)
	}

	base := time.Now()
	var ids atomic.Int64
	var setupSpans []span
	var rc *replayCtx
	if o.traced && w.endpoint != "load" {
		// The replay prepares its own instance of the resident graph;
		// doing so a few times also gives the prepare-path layers their
		// numbers on the workloads whose stream never prepares.
		rec := newRecorder(base, &ids)
		for i := 0; i < 3; i++ {
			if rc, err = replayPrepare(rec, fx.setupLoads()[0].lr); err != nil {
				return nil, fmt.Errorf("replaying set-up: %w", err)
			}
		}
		setupSpans = rec.spans
	}

	// Warm-up: a fixed prefix of the request stream, so the engine cost
	// the server's counters add up over it is a pure function of the seed.
	before, err := b.scrape()
	if err != nil {
		return nil, err
	}
	warm := b.loop(countStop(w.warmup), nil)
	after, err := b.scrape()
	if err != nil {
		return nil, err
	}
	ep := w.endpoint
	roundsPerOp := float64(after.engine("rounds", ep)-before.engine("rounds", ep)) / float64(w.warmup)
	msgsPerOp := float64(after.engine("messages", ep)-before.engine("messages", ep)) / float64(w.warmup)

	minOps := minTimedOps
	if o.minOps > 0 {
		minOps = o.minOps
	}
	res := &result{}
	var problems []string
	phases := []*phaseStats{&warm}
	var final scrapeResult
	if !o.traced {
		timed := b.loop(deadlineStop(o.duration, minOps, w.period), nil)
		heapLive := liveHeap()
		if final, err = b.scrape(); err != nil {
			return nil, err
		}
		phases = append(phases, &timed)
		lat := millis(timed.latencies)
		const mb = 1e6
		res.Metrics = map[string]metric{
			"setup_s":         {setupS, "s"},
			"ops_per_s":       {float64(timed.ok()) / timed.served.Seconds(), "1/s"},
			"latency_ms_p50":  {quantile(lat, 0.5), "ms"},
			"latency_ms_p90":  {quantile(lat, 0.9), "ms"},
			"rounds_per_op":   {roundsPerOp, "rounds"},
			"messages_per_op": {msgsPerOp, "words"},
			"instance_mb":     {float64(instBytes) / mb, "MB"},
			"heap_live_mb":    {float64(heapLive) / mb, "MB"},
			"alloc_mb_per_op": {float64(timed.allocs) / mb / float64(timed.attempted), "MB"},
		}
		fmt.Fprintf(o.log, "distbench: %s seed %d: %d timed requests served in %.2fs (%.2fs with the benchmark's own work), %d latency samples (%d above p90), set-up %d reps\n",
			w.name, o.seed, timed.attempted, timed.served.Seconds(), timed.wall.Seconds(), len(lat),
			len(lat)-int(0.9*float64(len(lat))), w.setupReps)
	} else {
		half := o.duration / 2
		plain := b.loop(deadlineStop(half, max(minOps/2, 1), w.period), nil)
		beforeB, err := b.scrape()
		if err != nil {
			return nil, err
		}
		traced := b.loop(deadlineStop(half, max(minOps/4, 1), w.period), newTracing(rc, base, &ids, w.clients))
		if final, err = b.scrape(); err != nil {
			return nil, err
		}
		phases = append(phases, &plain, &traced)
		if got := final.engine("messages", ep) - beforeB.engine("messages", ep); got != traced.replayMsgs {
			problems = append(problems, fmt.Sprintf("traced phase: server charged %d messages, replays %d", got, traced.replayMsgs))
		}
		spans := append(setupSpans, traced.spans...)
		res.Metrics = perLayer(spans, traced.ok(), final, layerExtras{
			instBytes: instBytes, instEstimate: instEstimate,
			m:        int64(fx.setupLoads()[0].g.M()),
			overhead: (traced.wall.Seconds() / float64(traced.attempted)) / (plain.wall.Seconds() / float64(plain.attempted)),
		})
		res.spans = spans
		fmt.Fprintf(o.log, "distbench: %s seed %d: %d untraced + %d traced requests (%d replays differed), %d spans\n",
			w.name, o.seed, plain.attempted, traced.attempted, traced.replayFailed, len(spans))
	}

	for _, p := range phases {
		res.Attempted += p.attempted
		res.Failed += p.failed
	}
	problems = append(problems, b.crossCheck(final)...)
	for _, p := range problems {
		fmt.Fprintln(o.log, "distbench: check failed:", p)
	}
	res.Correct = res.Failed == 0 && len(problems) == 0
	return res, nil
}

// scrapeResult is the deterministic section of a /metrics scrape: series
// (name plus labels, as exposed) to value.
type scrapeResult map[string]float64

func (s scrapeResult) engine(kind, endpoint string) int64 {
	return int64(s[`distlapd_engine_`+kind+`_total{endpoint="`+endpoint+`"}`])
}

// scrape reads GET /metrics through the handler.
func (b *bench) scrape() (scrapeResult, error) {
	rw, _, _ := serve(b.h, http.MethodGet, "/metrics", nil)
	if rw.Code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", rw.Code)
	}
	out := scrapeResult{}
	sc := bufio.NewScanner(rw.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "# --- wall-clock section") {
			break
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if i < 0 || err != nil {
			return nil, fmt.Errorf("GET /metrics: bad line %q", line)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// crossCheck compares the server's counters with the benchmark's tallies
// and returns every disagreement.
func (b *bench) crossCheck(s scrapeResult) []string {
	var bad []string
	expect := func(what string, got float64, want int64) {
		if int64(got) != want {
			bad = append(bad, fmt.Sprintf("/metrics %s = %d, benchmark counted %d", what, int64(got), want))
		}
	}
	t := &b.tally
	for ep, n := range t.sent {
		expect(`requests{endpoint="`+ep+`"}`, s[`distlapd_http_requests_total{endpoint="`+ep+`"}`], n)
		expect(`engine rounds{endpoint="`+ep+`"}`, float64(s.engine("rounds", ep)), t.rounds[ep])
		if t.msgsReported[ep] {
			expect(`engine messages{endpoint="`+ep+`"}`, float64(s.engine("messages", ep)), t.messages[ep])
		}
	}
	expect("cache hits + misses", s["distlapd_cache_hits_total"]+s["distlapd_cache_misses_total"], t.lookups)
	expect("cache evictions", s["distlapd_cache_evictions_total"], t.evicted)
	return bad
}
