package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/benchmarks"
	"repro/internal/dfgio"
	"repro/internal/serve"
)

// ServeBaseline is the machine-readable daemon snapshot `hlsbench
// -serve` writes to BENCH_serve.json: a replay load test against an
// in-process hlsd server. The workload warms every distinct request
// once (all cache misses), then replays the same requests from Clients
// concurrent clients — the steady state a synthesis service sees, where
// almost everything is a cache hit. The snapshot pins the hit-path
// latency percentiles, the hit rate, and the byte-identity guarantee
// (hit responses must be the exact bytes the miss produced), so a cache
// regression shows up in the baseline itself, like Identical does for
// the parallel sweep in BENCH_sweep.json.
type ServeBaseline struct {
	SchemaVersion int    `json:"schema_version"`
	GoVersion     string `json:"go_version"`
	GOMAXPROCS    int    `json:"gomaxprocs"`

	// Clients is the number of concurrent replay clients; Requests is
	// the total request count they issued; Designs is the number of
	// distinct cache entries the warm phase filled.
	Clients  int `json:"clients"`
	Requests int `json:"requests"`
	Designs  int `json:"designs"`

	// WarmMs is the sequential cold fill (every request a miss, real
	// synthesis); ReplayMs is the concurrent replay wall time.
	WarmMs   float64 `json:"warm_ms"`
	ReplayMs float64 `json:"replay_ms"`

	// P50Ms and P99Ms are client-observed replay latencies; ThroughputRPS
	// is replay requests per second across the whole fleet.
	P50Ms         float64 `json:"latency_p50_ms"`
	P99Ms         float64 `json:"latency_p99_ms"`
	ThroughputRPS float64 `json:"throughput_rps"`

	// HitRate is the fraction of replay requests answered from the
	// cache (X-Hlsd-Cache: hit). Every replay request repeats a warmed
	// one, so anything below 1.0 means the cache dropped entries it had
	// room for.
	HitRate float64 `json:"hit_rate"`

	// ByteIdentical records that every replayed response body matched
	// the warm-phase bytes for the same request — the guarantee that a
	// hit is served without re-synthesis and without drift.
	ByteIdentical bool `json:"byte_identical"`

	// SweepBatches and SweepBatchedReqs record the /sweep coalescing a
	// concurrent burst achieved: BatchedReqs requests were carried by
	// Batches SweepGraphsCtx fan-outs (fewer batches than requests =
	// coalescing worked).
	SweepBatches     uint64 `json:"sweep_batches"`
	SweepBatchedReqs uint64 `json:"sweep_batched_requests"`
}

// Replay fleet shape: serveClients concurrent clients each issuing
// serveRequestsPerClient requests round-robin over the warmed workload,
// and a serveSweepBurst-wide concurrent /sweep wave to exercise the
// batcher. The fleet is sized to stress admission and the cache hot
// path, not the synthesis engine — replay requests are hits.
const (
	serveClients           = 1000
	serveRequestsPerClient = 4
	serveSweepBurst        = 4 // concurrent duplicates per sweep graph
	serveSweepHi           = 8 // shared range hi; covers cp <= 8 graphs
)

// serveRequest is one replayable unit: a pre-marshalled request body
// and the endpoint it goes to.
type serveRequest struct {
	path string
	body []byte
}

// serveWorkload builds the distinct request set: every benchmark
// example synthesized at its critical path and at two relaxed
// schedules (cp, cp+1, cp+2 — always feasible, unlike the paper's T
// values, which can undershoot a graph's cycle-accurate critical
// path). Each (graph, cs) pair is one cache entry.
func serveWorkload() ([]serveRequest, error) {
	var reqs []serveRequest
	for _, ex := range benchmarks.All() {
		gj, err := dfgio.EncodeGraph(ex.Graph)
		if err != nil {
			return nil, err
		}
		cp := ex.Graph.CriticalPathCycles()
		for _, cs := range []int{cp, cp + 1, cp + 2} {
			body, err := json.Marshal(&serve.SynthesizeRequest{
				Graph:  gj,
				Config: serve.ConfigJSON{CS: cs},
			})
			if err != nil {
				return nil, err
			}
			reqs = append(reqs, serveRequest{path: "/synthesize", body: body})
		}
	}
	return reqs, nil
}

// serveSweepWave builds the concurrent /sweep burst: every example
// whose critical path fits the shared [1, serveSweepHi] range, each
// duplicated serveSweepBurst times so the batcher sees a real burst of
// coalescable work.
func serveSweepWave() ([]serveRequest, error) {
	var reqs []serveRequest
	for _, ex := range benchmarks.All() {
		if ex.Graph.CriticalPathCycles() > serveSweepHi {
			continue
		}
		gj, err := dfgio.EncodeGraph(ex.Graph)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(&serve.SweepRequest{
			Graph: gj,
			CsLo:  1,
			CsHi:  serveSweepHi,
		})
		if err != nil {
			return nil, err
		}
		for i := 0; i < serveSweepBurst; i++ {
			reqs = append(reqs, serveRequest{path: "/sweep", body: body})
		}
	}
	return reqs, nil
}

// MeasureServeCtx runs the replay load test against a fresh in-process
// daemon and returns the snapshot. Every issued request carries ctx, so
// a cancelled measurement unwinds promptly.
func MeasureServeCtx(ctx context.Context) (*ServeBaseline, error) {
	return measureServe(ctx, serveClients, serveRequestsPerClient)
}

// measureServe is the harness body with the fleet shape as parameters,
// so tests can run a small fleet through the identical code path.
func measureServe(ctx context.Context, clients, perClient int) (*ServeBaseline, error) {
	srv := serve.New(serve.Options{
		CacheEntries: 4096,
		CacheBytes:   256 << 20,
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// One shared transport, enough idle connections that the fleet
	// reuses sockets instead of churning through ephemeral ports.
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        clients,
		MaxIdleConnsPerHost: clients,
	}}
	defer client.CloseIdleConnections()

	work, err := serveWorkload()
	if err != nil {
		return nil, err
	}

	// Warm phase: every distinct request once, sequentially. All misses,
	// all real synthesis; the recorded bodies are the byte-identity
	// reference for the replay.
	warm := make([][]byte, len(work))
	warmStart := time.Now()
	for i, rq := range work {
		body, _, err := serveDo(ctx, client, ts.URL, rq)
		if err != nil {
			return nil, fmt.Errorf("warm %s #%d: %w", rq.path, i, err)
		}
		warm[i] = body
	}
	warmMs := float64(time.Since(warmStart)) / float64(time.Millisecond)

	// Sweep burst: concurrent coalescable /sweep requests, before the
	// replay so the burst is cold and actually batches.
	wave, err := serveSweepWave()
	if err != nil {
		return nil, err
	}
	if err := serveBurst(ctx, client, ts.URL, wave); err != nil {
		return nil, err
	}

	// Replay phase: the concurrent fleet, round-robin over the warmed
	// requests. Each client records its own latencies and verdicts;
	// merge afterwards.
	type clientResult struct {
		lat       []float64
		hits      int
		identical bool
		err       error
	}
	results := make([]clientResult, clients)
	var wg sync.WaitGroup
	replayStart := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res := clientResult{identical: true}
			for r := 0; r < perClient; r++ {
				i := (c*perClient + r) % len(work)
				start := time.Now()
				body, hit, err := serveDo(ctx, client, ts.URL, work[i])
				if err != nil {
					res.err = err
					break
				}
				res.lat = append(res.lat, float64(time.Since(start))/float64(time.Millisecond))
				if hit {
					res.hits++
				}
				if !bytes.Equal(body, warm[i]) {
					res.identical = false
				}
			}
			results[c] = res
		}(c)
	}
	wg.Wait()
	replayMs := float64(time.Since(replayStart)) / float64(time.Millisecond)

	var lat []float64
	hits, identical := 0, true
	for _, res := range results {
		if res.err != nil {
			return nil, fmt.Errorf("replay: %w", res.err)
		}
		lat = append(lat, res.lat...)
		hits += res.hits
		identical = identical && res.identical
	}
	sort.Float64s(lat)

	m := srv.Metrics()
	total := clients * perClient
	b := &ServeBaseline{
		SchemaVersion: 1,
		GoVersion:     runtime.Version(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Clients:       clients,
		Requests:      total,
		Designs:       len(work),
		WarmMs:        warmMs,
		ReplayMs:      replayMs,
		HitRate:       float64(hits) / float64(total),
		ByteIdentical: identical,

		SweepBatches:     m.Batches,
		SweepBatchedReqs: m.BatchedReqs,
	}
	if len(lat) > 0 {
		b.P50Ms = lat[len(lat)/2]
		i99 := int(0.99 * float64(len(lat)))
		if i99 >= len(lat) {
			i99 = len(lat) - 1
		}
		b.P99Ms = lat[i99]
	}
	if replayMs > 0 {
		b.ThroughputRPS = float64(total) / (replayMs / 1000)
	}
	return b, nil
}

// serveDo issues one request and returns the response body and the
// cache verdict. Non-200 statuses are errors carrying the body text.
func serveDo(ctx context.Context, client *http.Client, base string, rq serveRequest) ([]byte, bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+rq.path, bytes.NewReader(rq.body))
	if err != nil {
		return nil, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, false, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, false, fmt.Errorf("%s: status %d: %s", rq.path, resp.StatusCode, buf.String())
	}
	return buf.Bytes(), resp.Header.Get("X-Hlsd-Cache") == "hit", nil
}

// serveBurst fires every request concurrently and waits for all of
// them; first error wins.
func serveBurst(ctx context.Context, client *http.Client, base string, reqs []serveRequest) error {
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for i, rq := range reqs {
		wg.Add(1)
		go func(i int, rq serveRequest) {
			defer wg.Done()
			_, _, errs[i] = serveDo(ctx, client, base, rq)
		}(i, rq)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("sweep burst: %w", err)
		}
	}
	return nil
}

// LoadServeBaseline reads a committed BENCH_serve.json.
func LoadServeBaseline(path string) (*ServeBaseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("no serve baseline at %s: run `hlsbench -serve -out %s` to regenerate", path, path)
		}
		return nil, err
	}
	var b ServeBaseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if b.SchemaVersion != 1 {
		return nil, fmt.Errorf("%s: schema version %d, want 1; regenerate with `hlsbench -serve -out %s`",
			path, b.SchemaVersion, path)
	}
	return &b, nil
}

// ServeDeltas pairs up the comparable wall-time measurements of two
// serve baselines, in report order.
func ServeDeltas(baseline, fresh *ServeBaseline) []Delta {
	return []Delta{
		{Name: "serve/warm", OldMs: baseline.WarmMs, NewMs: fresh.WarmMs},
		{Name: "serve/replay", OldMs: baseline.ReplayMs, NewMs: fresh.ReplayMs},
		{Name: "serve/p50", OldMs: baseline.P50Ms, NewMs: fresh.P50Ms},
		{Name: "serve/p99", OldMs: baseline.P99Ms, NewMs: fresh.P99Ms},
	}
}

// CompareServe checks a fresh load-test run against the committed
// baseline: every wall time within tolerance, hit rate no worse than
// the baseline's, replayed responses byte-identical, and the sweep
// burst still coalescing (fewer batches than batched requests). The
// non-timing checks are exact — they are correctness guarantees the
// load test happens to witness, not measurements with noise.
func CompareServe(baseline, fresh *ServeBaseline, tolerance float64) []PerfRegression {
	var regs []PerfRegression
	for _, d := range ServeDeltas(baseline, fresh) {
		if d.OldMs <= 0 {
			continue
		}
		if limit := d.OldMs * tolerance; d.NewMs > limit {
			regs = append(regs, PerfRegression{Name: d.Name, OldMs: d.OldMs, NewMs: d.NewMs, LimitMs: limit})
		}
	}
	if fresh.HitRate < baseline.HitRate {
		regs = append(regs, PerfRegression{Name: "serve/hit_rate",
			OldMs: baseline.HitRate, NewMs: fresh.HitRate, LimitMs: baseline.HitRate})
	}
	if !fresh.ByteIdentical {
		regs = append(regs, PerfRegression{Name: "serve/byte_identical"})
	}
	if fresh.SweepBatchedReqs > 0 && fresh.SweepBatches >= fresh.SweepBatchedReqs {
		regs = append(regs, PerfRegression{Name: "serve/sweep_batching",
			OldMs: float64(baseline.SweepBatches), NewMs: float64(fresh.SweepBatches)})
	}
	return regs
}
