package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"time"

	"bigtiny/internal/serve"
)

// simdConfigs are the 64- and 8-core machines run jobs use; open jobs
// use the 8-core ones.
var (
	simdConfigs = []string{
		"bT/MESI", "bT/HCC-dnv", "bT/HCC-gwt", "bT/HCC-gwb",
		"bT/HCC-DTS-dnv", "bT/HCC-DTS-gwt", "bT/HCC-DTS-gwb",
		"bT8/MESI", "bT8/HCC-gwb", "bT8/HCC-DTS-gwb",
	}
	openConfigs = []string{"bT8/MESI", "bT8/HCC-gwb", "bT8/HCC-DTS-gwb"}
	openRates   = []float64{1, 4, 16}
)

// The simd-mix stream's make-up. Every config × app cell is requested
// runRounds times, one of them under chaos-lossy-all; every open
// config × rate pair openRounds times with workload seeds 1..openRounds,
// one of them under chaos-lossy-all. repeatFrac of the stream repeats
// an earlier request.
const (
	runRounds  = 3
	openRounds = 5
	repeatFrac = 0.6
)

// simdReq is one request of the stream.
type simdReq struct {
	body   []byte // the POST body; equal bodies are the same job
	open   bool
	chaos  bool
	repeat bool
}

// simdStream generates the simd-mix request stream from seed: the new
// requests above in seeded order, with seeded fault seeds and seeded
// choices of which instance runs under chaos, interleaved with repeats
// of uniformly chosen earlier requests. Every seed thus asks for the
// same cells; scale multiplies the stream (smoke runs use a fraction).
func simdStream(seed uint64, scale float64) []simdReq {
	r := rand.New(rand.NewSource(int64(seed)))
	var fresh []simdReq
	add := func(req serve.JobRequest, chaos bool) {
		if chaos {
			req.Faults = "chaos-lossy-all"
			req.FaultSeed = uint64(1 + r.Intn(1<<16))
		}
		body, err := json.Marshal(req)
		if err != nil {
			panic(err) // a JobRequest always marshals
		}
		fresh = append(fresh, simdReq{body: body, open: req.Kind == "open", chaos: chaos})
	}
	for _, cfg := range simdConfigs {
		for _, app := range allApps() {
			chaosRound := r.Intn(runRounds)
			for k := 0; k < runRounds; k++ {
				add(serve.JobRequest{Config: cfg, App: app, Size: "test"}, k == chaosRound)
			}
		}
	}
	for _, cfg := range openConfigs {
		for _, rate := range openRates {
			chaosRound := r.Intn(openRounds)
			for k := 0; k < openRounds; k++ {
				add(serve.JobRequest{
					Kind: "open", Config: cfg, Workload: "rmat-query", Arrival: "poisson",
					RatePerKCycle: rate, Requests: 32, Seed: uint64(k + 1),
				}, k == chaosRound)
			}
		}
	}
	r.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })
	fresh = fresh[:max(1, int(float64(len(fresh))*scale))]

	// Place the repeats: a seeded shuffle of exactly the right number of
	// repeat slots among the new requests, never first.
	n := int(math.Round(float64(len(fresh)) / (1 - repeatFrac)))
	slots := make([]bool, n-1)
	for i := range slots[:n-len(fresh)] {
		slots[i] = true
	}
	r.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	out := make([]simdReq, 0, n)
	out = append(out, fresh[0])
	fresh = fresh[1:]
	for _, repeat := range slots {
		if repeat {
			again := out[r.Intn(len(out))]
			again.repeat = true
			out = append(out, again)
		} else {
			out = append(out, fresh[0])
			fresh = fresh[1:]
		}
	}
	return out
}

// The run's set-up is a cold start: a server on an empty store directory
// answering its first job, coldJob. The first pass makes setupRepeats
// cold starts and the run reports their median. A bare start-up, up to
// the first /healthz answer, takes about half a millisecond and moved
// by half between runs on a 2-CPU VM, too little work to time steadily.
const setupRepeats = 9

var coldJob = []byte(`{"config":"bT/HCC-DTS-gwb","app":"cilk5-cs","size":"test"}`)

// simdWorkload posts a generated request stream to an in-process simd
// server over loopback HTTP from one closed-loop client.
type simdWorkload struct {
	stream  []simdReq
	workdir string
	// bodies holds the digest of the first body each job returned, so
	// every later answer to the same job, in any pass, must match it.
	bodies map[string][sha256.Size]byte
	// setup is the run's median cold-start time (0 until the first pass
	// takes it).
	setup float64
}

func newSimdWorkload(seed uint64, scale float64, workdir string) *simdWorkload {
	return &simdWorkload{
		stream:  simdStream(seed, scale),
		workdir: workdir,
		bodies:  make(map[string][sha256.Size]byte),
	}
}

// simdServer is one running server with its listener and store.
type simdServer struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	dir    string
	served chan error
}

// startServer brings up a server on a fresh store directory and waits
// for its first healthy answer.
func (w *simdWorkload) startServer(client *http.Client) (*simdServer, error) {
	dir, err := os.MkdirTemp(w.workdir, "simd-store-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.NewServer(serve.Config{Workers: 2, StoreDir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv.Start()
	s := &simdServer{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), dir: dir, served: make(chan error, 1)}
	go func() { s.served <- s.hs.Serve(ln) }()
	if _, err := s.health(client); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// health is the part of /healthz the benchmark reads.
type health struct {
	Failed   uint64 `json:"jobs_failed"`
	Rejected uint64 `json:"jobs_rejected_overload"`
	Store    *struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
		Puts   uint64 `json:"puts"`
		Errors uint64 `json:"errors"`
	} `json:"store"`
}

func (s *simdServer) health(client *http.Client) (*health, error) {
	resp, err := client.Get(s.url + "/healthz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var h health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return nil, fmt.Errorf("healthz: %w", err)
	}
	return &h, nil
}

// stop shuts the listener, drains the worker pool, waits for the serve
// loop to return and removes the store.
func (s *simdServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx)
	s.srv.Drain(5 * time.Second)
	<-s.served
	os.RemoveAll(s.dir)
}

// jobResult is one POST's outcome.
type jobResult struct {
	status int
	source string // X-Simd-Result: "ran" or "store"
	body   []byte
	lat    time.Duration
	err    error
}

func post(client *http.Client, url string, body []byte) jobResult {
	t := time.Now()
	resp, err := client.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return jobResult{err: err, lat: time.Since(t)}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return jobResult{status: resp.StatusCode, source: resp.Header.Get("X-Simd-Result"), body: data, lat: time.Since(t), err: err}
}

// pass starts a fresh server, sends the whole stream through it, checks
// every answer and stops the server.
func (w *simdWorkload) pass(rec *recorder) *passResult {
	pr := newPassResult()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}

	// The first pass times the run's set-up before any pass has grown
	// the heap or churned the file system. Every pass then starts the
	// server its stream runs on.
	if w.setup == 0 {
		var setups []float64
		for k := 0; k < setupRepeats; k++ {
			t0 := time.Now()
			s, err := w.startServer(client)
			if err == nil {
				res := post(client, s.url, coldJob)
				setups = append(setups, time.Since(t0).Seconds())
				s.stop()
				err = res.err
				if err == nil && res.status != http.StatusOK {
					err = fmt.Errorf("HTTP %d: %s", res.status, res.body)
				}
			}
			if err != nil {
				pr.ops++
				pr.fail("cold start: " + err.Error())
				return pr
			}
		}
		w.setup = median(setups)
	}
	pr.setup = w.setup
	s, err := w.startServer(client)
	if err != nil {
		pr.ops++
		pr.fail("start server: " + err.Error())
		return pr
	}

	// One client, so one job is in flight at a time. With two, a store
	// read's latency depended on whether the other client's simulation
	// was running beside it, and job p50 spread by up to 0.3 of its
	// median between runs on a 2-CPU VM.
	results := make([]jobResult, len(w.stream))
	start := time.Now()
	for i, req := range w.stream {
		sp := rec.begin(rec.newID(), "job", -1)
		results[i] = post(client, s.url, req.body)
		rec.end(sp)
	}
	pr.wall = time.Since(start).Seconds()

	h, herr := s.health(client)
	s.stop()
	if herr != nil {
		pr.fail("healthz: " + herr.Error())
	} else {
		pr.layer["serve.failed"] = float64(h.Failed)
		pr.layer["serve.rejected"] = float64(h.Rejected)
		if st := h.Store; st != nil {
			pr.layer["store.puts"] = float64(st.Puts)
			pr.layer["store.errors"] = float64(st.Errors)
			if st.Hits+st.Misses > 0 {
				pr.layer["store.hit_ratio"] = float64(st.Hits) / float64(st.Hits+st.Misses)
			}
		}
	}

	seen := make(map[string]bool)
	for i, res := range results {
		pr.ops++
		pr.lat = append(pr.lat, ms(res.lat))
		if err := w.check(w.stream[i], res); err != nil {
			pr.fail(fmt.Sprintf("job %d %s: %v", i, w.stream[i].body, err))
			continue
		}
		pr.latBy[res.source] = append(pr.latBy[res.source], ms(res.lat))
		if key := string(w.stream[i].body); !seen[key] {
			seen[key] = true
			cycles, faults, _ := jobCounts(res.body, w.stream[i].open)
			pr.counts["sim_cycles"] += cycles
			pr.counts["fault.total"] += faults
			pr.counts["simd.distinct_jobs"]++
		}
	}
	pr.cycles = pr.counts["sim_cycles"]
	return pr
}

// check validates one answer: HTTP 200 from the store or a run, the
// accounting identity of its body, and byte-identity with every earlier
// answer to the same job.
func (w *simdWorkload) check(req simdReq, res jobResult) error {
	if res.err != nil {
		return res.err
	}
	if res.status != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", res.status, res.body)
	}
	if res.source != "ran" && res.source != "store" {
		return fmt.Errorf("X-Simd-Result %q", res.source)
	}
	if _, _, err := jobCounts(res.body, req.open); err != nil {
		return err
	}
	sum := sha256.Sum256(res.body)
	key := string(req.body)
	if prev, ok := w.bodies[key]; !ok {
		w.bodies[key] = sum
	} else if prev != sum {
		return errors.New("body differs from an earlier answer to the same job")
	}
	return nil
}

// jobCounts decodes a job body, checks its accounting identity — ULI
// Reqs == Acks + Nacks + Drops for a run, arrived == completed + shed +
// in_flight for an open job — and returns its simulated cycles and
// injected faults.
func jobCounts(body []byte, open bool) (cycles, faults float64, err error) {
	var runs []struct {
		Cycles     uint64 `json:"cycles"`
		FaultTotal uint64 `json:"fault_total"`
		ULIReqs    uint64 `json:"uli_reqs"`
		ULIAcks    uint64 `json:"uli_acks"`
		ULINacks   uint64 `json:"uli_nacks"`
		ULIDrops   uint64 `json:"uli_drops"`
		Arrived    int    `json:"arrived"`
		Completed  int    `json:"completed"`
		Shed       int    `json:"shed"`
		InFlight   int    `json:"in_flight_at_end"`
	}
	if err := json.Unmarshal(body, &runs); err != nil {
		return 0, 0, fmt.Errorf("body: %w", err)
	}
	if len(runs) != 1 {
		return 0, 0, fmt.Errorf("body holds %d results, want 1", len(runs))
	}
	r := runs[0]
	if open {
		if r.Arrived != r.Completed+r.Shed+r.InFlight {
			return 0, 0, fmt.Errorf("open accounting: arrived %d != completed %d + shed %d + in_flight %d",
				r.Arrived, r.Completed, r.Shed, r.InFlight)
		}
	} else if r.ULIReqs != r.ULIAcks+r.ULINacks+r.ULIDrops {
		return 0, 0, fmt.Errorf("ULI accounting: reqs %d != acks %d + nacks %d + drops %d",
			r.ULIReqs, r.ULIAcks, r.ULINacks, r.ULIDrops)
	}
	if r.Cycles == 0 {
		return 0, 0, errors.New("body reports 0 cycles")
	}
	return float64(r.Cycles), float64(r.FaultTotal), nil
}
