package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/dfgio"
	"repro/internal/serve"
)

// hlsd is an in-process serve.New on loopback with one keep-alive client
// connection. verify-mid's traced run sends its graphs through it to
// time the hlsd layers: the server's hit and miss paths, and the key
// path a request takes before the cache lookup.

// hlsdCache is the server's cache size in entries: fewer than the graphs
// verify-mid sends, so later misses evict earlier entries beside the
// reads.
const hlsdCache = 8

type hlsd struct {
	srv      *serve.Server
	hs       *http.Server
	done     chan struct{}
	url      string
	client   *http.Client
	missHash map[int][32]byte // request id -> hash of its miss response
}

// sreq is one prepared request body.
type sreq struct {
	id    int // distinct per prepared request
	body  []byte
	graph *dfg.Graph // the graph in the body, for the key-path timings
	cfg   core.Config
}

func synthReq(id int, g *dfg.Graph, cfg core.Config) (sreq, error) {
	gj, err := dfgio.EncodeGraph(g)
	if err != nil {
		return sreq{}, err
	}
	body, err := json.Marshal(serve.SynthesizeRequest{Graph: gj, Config: serve.ConfigJSON{CS: cfg.CS, ClockNs: cfg.ClockNs}})
	return sreq{id: id, body: body, graph: g, cfg: cfg}, err
}

func startHlsd() (*hlsd, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &hlsd{
		srv:      serve.New(serve.Options{CacheEntries: hlsdCache}),
		done:     make(chan struct{}),
		url:      "http://" + ln.Addr().String() + "/synthesize",
		missHash: make(map[int][32]byte),
		client: &http.Client{
			Timeout:   time.Minute,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		},
	}
	h.hs = &http.Server{Handler: h.srv.Handler()}
	go func() {
		defer close(h.done)
		h.hs.Serve(ln) // returns http.ErrServerClosed after close
	}()
	return h, nil
}

// close stops the server and waits for its goroutine to end.
func (h *hlsd) close() {
	h.srv.Close()
	h.hs.Close()
	<-h.done
	h.client.CloseIdleConnections()
}

// send posts one /synthesize request and returns whether the cache hit
// and the served design's cost. A hit body that differs from the miss
// body of the same request is an error.
func (h *hlsd) send(r sreq) (hit bool, cost float64, err error) {
	resp, err := h.client.Post(h.url, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return false, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return false, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return false, 0, fmt.Errorf("status %d", resp.StatusCode)
	}
	var sr serve.SynthesizeResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		return false, 0, err
	}
	hit = resp.Header.Get("X-Hlsd-Cache") == "hit"
	sum := sha256.Sum256(body)
	prev, seen := h.missHash[r.id]
	switch {
	case !seen:
		h.missHash[r.id] = sum
	case hit && prev != sum:
		return hit, 0, fmt.Errorf("hit body differs from its miss body")
	}
	return hit, sr.Cost.Total, nil
}

// keyPath times again, on every request body, what the server runs on
// it before the cache lookup: decoding and both content hashes. The
// results are discarded: the served requests were already checked.
func keyPath(tr *tracer, aside int, reqs []sreq) {
	for _, r := range reqs {
		var req serve.SynthesizeRequest
		if json.Unmarshal(r.body, &req) != nil {
			continue
		}
		var g *dfg.Graph
		tr.do(aside, "dfgio.DecodeGraph", r.graph.Name, func() { g, _ = dfgio.DecodeGraph(req.Graph) })
		if g == nil {
			continue
		}
		tr.do(aside, "canon.Fingerprint", r.graph.Name, func() { _, _ = canon.Fingerprint(g, nil, r.cfg) })
		tr.do(aside, "canon.Canonical", r.graph.Name, func() { _, _ = canon.Canonical(g, nil, r.cfg) })
	}
}
