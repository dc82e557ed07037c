package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dagman"
	"repro/internal/decompose"
	"repro/internal/serve"
	"repro/internal/workloads"
)

// serve-inspiral: two closed-loop clients post the paper Inspiral file
// to an in-process serve.New on loopback. The seed picks each
// request's format (json or dag, 3:1) and tenant (one of two).

const (
	serveClients  = 2
	serveBlockOps = 10 // requests per client between two calibration samples
)

var serveTenants = []string{"tenant-a", "tenant-b"}

// A benchmark request carries its op id and client span id in these
// headers, so the handler span can name its parent.
const (
	hdrOp   = "X-Bench-Op"
	hdrSpan = "X-Bench-Span"
)

// server is one in-process daemon on a loopback listener.
type server struct {
	srv    *serve.Server
	hs     *http.Server
	done   chan error
	url    string
	client *http.Client
}

func startServer(tr *tracer) (*server, error) {
	srv := serve.New(serve.Config{})
	h := srv.Handler()
	if tr != nil {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			op, err := strconv.ParseInt(req.Header.Get(hdrOp), 10, 64)
			if err != nil {
				inner.ServeHTTP(w, req)
				return
			}
			parent, _ := strconv.Atoi(req.Header.Get(hdrSpan))
			s := tr.begin("serve.handler", op, parent)
			inner.ServeHTTP(w, req)
			tr.end(s)
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		srv:  srv,
		hs:   &http.Server{Handler: h},
		done: make(chan error, 1),
		url:  "http://" + ln.Addr().String() + "/v1/prioritize",
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: serveClients,
			DisableCompression:  true,
		}},
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the daemon down and waits for its Serve loop to return.
func (s *server) stop() error {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	return err
}

// reply is one request's outcome.
type reply struct {
	format string
	status int
	body   []byte
	err    error
	secs   float64
}

func (s *server) post(body []byte, format, tenant string, op int64, tr *tracer) reply {
	rp := reply{format: format}
	req, err := http.NewRequest(http.MethodPost, s.url+"?format="+format, bytes.NewReader(body))
	if err != nil {
		rp.err = err
		return rp
	}
	req.Header.Set("X-Prio-Tenant", tenant)
	span := tr.begin("op", op, -1)
	if tr != nil {
		req.Header.Set(hdrOp, strconv.FormatInt(op, 10))
		req.Header.Set(hdrSpan, strconv.Itoa(span))
	}
	t := time.Now()
	resp, err := s.client.Do(req)
	if err == nil {
		rp.status = resp.StatusCode
		rp.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	rp.secs = time.Since(t).Seconds()
	tr.end(span)
	rp.err = err
	return rp
}

// serveWant is the reference: the prio-sdss op (checked there against
// an independent reference) run in process on the same text, without
// the tenant cache, and rendered per format as serve renders it.
func serveWant(text string) (map[string][]byte, *dag.Frozen, error) {
	o, err := prioOp(text, nil, -1)
	if err != nil {
		return nil, nil, err
	}
	g, sched := o.g, o.sched
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"jobs":%d,"arcs":%d,"components":%d,"shortcuts_removed":%d,"order":[`,
		g.NumNodes(), g.NumArcs(), len(sched.Components), len(sched.Decomposition.Shortcuts))
	for i, v := range sched.Order {
		if i > 0 {
			b.WriteByte(',')
		}
		q, _ := json.Marshal(g.Name(v))
		b.Write(q)
	}
	b.WriteString(`],"priorities":{`)
	for v := 0; v < g.NumNodes(); v++ {
		if v > 0 {
			b.WriteByte(',')
		}
		q, _ := json.Marshal(g.Name(v))
		b.Write(q)
		fmt.Fprintf(&b, ":%d", sched.Priority[v])
	}
	b.WriteString("}}\n")
	return map[string][]byte{"json": b.Bytes(), "dag": []byte(o.text)}, g, nil
}

// checkReply passes a 200 whose body is byte-identical to the in-process
// reference for its format (so every response for one format and
// tenant is byte-identical too). A 429 or 413 is a failure.
func checkReply(rp reply, want map[string][]byte) error {
	if rp.err != nil {
		return rp.err
	}
	if rp.status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", rp.status, rp.body)
	}
	if !bytes.Equal(rp.body, want[rp.format]) {
		return fmt.Errorf("%s response differs from the in-process pipeline (%d vs %d bytes)", rp.format, len(rp.body), len(want[rp.format]))
	}
	return nil
}

// corruptReply damages a response for the self-test: "swap" exchanges
// two dependent jobs (their order entries in json, their priorities in
// dag text); "priority" changes the first priority in the body.
func corruptReply(kind string, rp *reply, g *dag.Frozen) {
	body := string(rp.body)
	switch {
	case kind == "priority" && rp.format == "dag":
		body = bumpFirstPriority(body)
	case kind == "priority":
		i := strings.Index(body, `"priorities":{`)
		if i >= 0 {
			j := i + strings.IndexByte(body[i:], ':') + 1
			j += strings.IndexByte(body[j:], ':') + 1
			body = body[:j] + "1" + body[j:]
		}
	case kind == "swap":
		u, v := firstArc(g)
		a, b := strconv.Quote(g.Name(u)), strconv.Quote(g.Name(v))
		if rp.format == "dag" {
			a, b = "s "+g.Name(u)+" jobpriority", "s "+g.Name(v)+" jobpriority" // the tail of "Vars <job> jobpriority"
		}
		body = strings.NewReplacer(a, b, b, a).Replace(body)
	}
	rp.body = []byte(body)
}

func firstArc(g *dag.Frozen) (int, int) {
	for u := 0; u < g.NumNodes(); u++ {
		if kids := g.Children(u); len(kids) > 0 {
			return u, int(kids[0])
		}
	}
	return 0, 0
}

func runServe(r *run) error {
	text := dagman.FromGraph(workloads.PaperInspiral(), nil).String()
	body := []byte(text)
	want, g, err := serveWant(text)
	if err != nil {
		return err
	}

	// Setup: construct the daemon, its listener and client, and serve
	// the cold first request. Every repetition starts a fresh daemon;
	// the last one serves the timed phase.
	var s *server
	for i := 0; i < setupReps; i++ {
		if s != nil {
			if err := s.stop(); err != nil {
				return err
			}
		}
		r.cal.sample()
		t := time.Now()
		s, err = startServer(r.tr)
		if err != nil {
			return err
		}
		rp := s.post(body, "json", serveTenants[0], -1, nil)
		r.setup = append(r.setup, r.timed(time.Since(t).Seconds()))
		if err := checkReply(rp, want); err != nil {
			s.stop()
			return fmt.Errorf("cold request: %v", err)
		}
	}

	rngs := make([]*rand.Rand, serveClients)
	for c := range rngs {
		rngs[c] = rand.New(rand.NewPCG(r.seed, uint64(c)))
	}
	m0 := s.srv.Metrics()
	var (
		ms                  runtime.MemStats
		gcs                 uint32
		nextOp              int64
		probeCache          = core.NewCache()
		tracedOps, dagShare float64
	)
	start := r.startTimed()
	for blk := 0; !r.timeUp(start); blk++ {
		r.cal.sample()
		tr := r.tr
		if blk%2 == 0 {
			tr = nil // a traced run alternates traced and untraced blocks
		}
		replies := make([][]reply, serveClients)
		gc0 := s.srv.Metrics().Mem.NumGC
		runtime.ReadMemStats(&ms)
		a0 := ms.TotalAlloc
		var wg sync.WaitGroup
		t := time.Now()
		for c := 0; c < serveClients; c++ {
			wg.Add(1)
			go func(c int, op0 int64) {
				defer wg.Done()
				for k := 0; k < serveBlockOps; k++ {
					format := "json"
					if rngs[c].IntN(4) == 0 {
						format = "dag"
					}
					tenant := serveTenants[rngs[c].IntN(len(serveTenants))]
					replies[c] = append(replies[c], s.post(body, format, tenant, op0+int64(k), tr))
				}
			}(c, nextOp+int64(c*serveBlockOps))
		}
		wg.Wait()
		d := time.Since(t).Seconds()
		nextOp += serveClients * serveBlockOps
		runtime.ReadMemStats(&ms)
		gcs += s.srv.Metrics().Mem.NumGC - gc0
		r.walls = append(r.walls, r.timed(d))
		if tr == nil {
			r.allocB += float64(ms.TotalAlloc - a0)
		}
		for _, rs := range replies {
			for _, rp := range rs {
				if tr == nil {
					r.ops = append(r.ops, r.timed(rp.secs))
				} else {
					r.tracedRaw = append(r.tracedRaw, rp.secs)
					tracedOps++
					if rp.format == "dag" {
						dagShare++
					}
				}
				if r.corrupt != "" {
					corruptReply(r.corrupt, &rp, g)
				}
				r.record(checkReply(rp, want))
			}
		}
		if tr != nil {
			r.layers["decompose.components"] = float64(probeServe(tr, int64(-1-blk), text, probeCache))
		}
	}
	m1 := s.srv.Metrics()
	if err := s.stop(); err != nil {
		return err
	}
	if r.tr != nil {
		serveLayers(r, m0, m1, float64(gcs), dagShare/tracedOps)
	}
	return nil
}

// probeServe times, between blocks and outside any request, the layers
// a request runs inside the handler, on the same input and with a warm
// cache as a tenant has.
func probeServe(tr *tracer, op int64, text string, cache *core.Cache) (components int) {
	s := tr.beginAlloc("dagman.parse", op, -1)
	f, err := dagman.Parse(strings.NewReader(text))
	tr.end(s)
	if err != nil {
		return 0
	}
	s = tr.beginAlloc("dag.graph", op, -1)
	g, err := f.Graph()
	tr.end(s)
	if err != nil {
		return 0
	}
	s = tr.begin("dag.reduce", op, -1)
	g.TransitiveReduction()
	tr.end(s)
	s = tr.begin("decompose.divide", op, -1)
	d := decompose.DecomposeOpts(g, decompose.Options{ReduceCache: cache.ReduceCache()})
	tr.end(s)
	s = tr.beginAlloc("core.prioritize", op, -1)
	sched := core.PrioritizeOpts(g, core.Options{Parallel: 1, Cache: cache})
	tr.end(s)
	prio := make(map[string]int, g.NumNodes())
	for v := 0; v < g.NumNodes(); v++ {
		prio[g.Name(v)] = sched.Priority[v]
	}
	s = tr.beginAlloc("dagman.instrument", op, -1)
	f.Instrument(prio)
	tr.end(s)
	return len(d.Components)
}

func serveLayers(r *run, m0, m1 serve.Snapshot, gcs, dagShare float64) {
	self, prioT := pipelineLayers(r)
	handler, _ := r.layerMs("serve.handler", self)
	transport, _ := r.layerMs("op", self) // the client span's self time: the request minus the handler
	r.layers["serve.handler.ms"] = handler
	r.layers["serve.transport.ms"] = transport
	hits, misses := m1.Cache.Hits-m0.Cache.Hits, m1.Cache.Misses-m0.Cache.Misses
	if hits+misses > 0 {
		r.layers["serve.cache_hit_frac"] = float64(hits) / float64(hits+misses)
	}
	r.layers["serve.shed"] = float64(m1.Shed.QueueFull + m1.Shed.Deadline + m1.Shed.ClientGone -
		m0.Shed.QueueFull - m0.Shed.Deadline - m0.Shed.ClientGone)
	r.layers["serve.gc_per_op"] = gcs / float64(r.attempted)
	// The in-handler layers the probes measure, against the request.
	explained := r.layers["dagman.parse.ms"] + r.layers["dag.graph.ms"] + prioT +
		dagShare*r.layers["dagman.instrument.ms"] + transport
	r.layers["ledger.unattributed_frac"] = 1 - explained/(1e3*r.cal.scale(median(r.tracedRaw)))
}
