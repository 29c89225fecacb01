package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gpushare/internal/core"
	"gpushare/internal/simtime"
	"gpushare/perfbench/check"
)

const (
	// serveGPUs is serve-ingest's fleet size.
	serveGPUs = 1024
	// snapshotEvery is how many ingest requests pass between a GET
	// /stream/state and a GET /metrics.
	snapshotEvery = 32
	// profileSeconds is the length of the server CPU profile a traced
	// round takes around its timed requests.
	profileSeconds = 2
)

// server is one `gpusched serve -stream` process and the benchmark's
// one connection to it.
type server struct {
	cmd    *exec.Cmd
	base   string
	pipe   *pipe
	exited chan struct{}
	stderr bytes.Buffer
}

// startServer launches gpusched at its defaults apart from fleet shape,
// policy and seed, on a port the kernel picks, and waits for /healthz.
func startServer(bin string, gpus int) (*server, error) {
	if bin == "" {
		return nil, fmt.Errorf("no gpusched binary (run through perfbench/run.sh)")
	}
	s := &server{exited: make(chan struct{})}
	s.cmd = exec.Command(bin, "serve", "-stream", "-policy", "energy",
		"-fleet", fmt.Sprintf("1x%d", gpus), "-seed", strconv.Itoa(fleetSeed), "-http", "127.0.0.1:0")
	s.cmd.Stderr = &s.stderr
	// The server must not outlive the benchmark, even when it is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		_ = s.cmd.Wait()
		close(s.exited)
	}()
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "telemetry on http://"); ok {
				addr <- strings.TrimSuffix(rest, "/metrics")
			}
		}
		close(addr)
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			s.stop()
			return nil, fmt.Errorf("gpusched exited before listening: %s", s.stderr.String())
		}
		s.base = "http://" + a
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, fmt.Errorf("gpusched did not start listening")
	}
	for i := 0; ; i++ {
		err := s.connect()
		if err == nil {
			return s, nil
		}
		if i == 1000 {
			s.stop()
			return nil, fmt.Errorf("gpusched /healthz never answered: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// connect opens the connection and asks /healthz over it.
func (s *server) connect() error {
	conn, err := net.Dial("tcp", strings.TrimPrefix(s.base, "http://"))
	if err != nil {
		return err
	}
	s.pipe = &pipe{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
	if _, err := s.do(request{http.MethodGet, "/healthz", nil}); err != nil {
		conn.Close()
		s.pipe = nil
		return err
	}
	return nil
}

// do sends one request and returns the body of a 200 response.
func (s *server) do(r request) ([]byte, error) {
	out, err := s.pipe.exchange([]request{r}, nil)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// request is one HTTP request to the server.
type request struct {
	method, path string
	body         []byte
}

// pipe is an HTTP/1.1 connection on which the benchmark keeps up to two
// requests outstanding. The server handles a connection's requests in
// order, so when it finishes one it finds the next already waiting and
// never waits for the client to be scheduled. With one request at a
// time, those wake-ups on a shared 2-vCPU host, not the server's work,
// halved the request rate in some runs while the server's CPU per
// arrival stayed within 10%.
type pipe struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
}

func (p *pipe) send(r request) error {
	fmt.Fprintf(p.bw, "%s %s HTTP/1.1\r\nHost: gpusched\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n",
		r.method, r.path, len(r.body))
	p.bw.Write(r.body)
	return p.bw.Flush()
}

// recv reads the response to r and returns its body; a status other
// than 200 is an error.
func (p *pipe) recv(r request) ([]byte, error) {
	resp, err := http.ReadResponse(p.br, nil)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", r.method, r.path, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %s: %s", r.method, r.path, resp.Status, bytes.TrimSpace(data))
	}
	return data, nil
}

// exchange sends reqs in order, at most two outstanding, and returns
// the response bodies. The latency passed to lat runs from when the
// server could start a request (it was sent and the previous response
// was read) until its response was read.
func (p *pipe) exchange(reqs []request, lat func(i int, d time.Duration)) ([][]byte, error) {
	out := make([][]byte, len(reqs))
	sent := make([]time.Time, len(reqs))
	var prev time.Time
	for i, next := 0, 0; i < len(reqs); i++ {
		for ; next < len(reqs) && next <= i+1; next++ {
			if err := p.send(reqs[next]); err != nil {
				return nil, err
			}
			sent[next] = time.Now()
		}
		body, err := p.recv(reqs[i])
		if err != nil {
			return nil, err
		}
		done := time.Now()
		start := sent[i]
		if prev.After(start) {
			start = prev
		}
		if lat != nil {
			lat(i, done.Sub(start))
		}
		prev = done
		out[i] = body
	}
	return out, nil
}

// stop interrupts the server and waits for it to exit.
func (s *server) stop() {
	if s == nil || s.cmd.Process == nil {
		return
	}
	_ = s.cmd.Process.Signal(os.Interrupt)
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
	if s.pipe != nil {
		s.pipe.conn.Close()
	}
}

// usage reads the server's CPU seconds and peak RSS from /proc. The CPU
// time is the sum of every thread's schedstat run time, which counts in
// nanoseconds where /proc/<pid>/stat counts in clock ticks.
func (s *server) usage() (float64, float64, error) {
	dir := fmt.Sprintf("/proc/%d", s.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir + "/task")
	if err != nil {
		return 0, 0, err
	}
	var ns float64
	for _, t := range tasks {
		data, err := os.ReadFile(dir + "/task/" + t.Name() + "/schedstat")
		if err != nil {
			continue // the thread exited
		}
		f := strings.Fields(string(data))
		if len(f) == 0 {
			return 0, 0, fmt.Errorf("empty %s/task/%s/schedstat", dir, t.Name())
		}
		v, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, 0, err
		}
		ns += v
	}
	status, err := os.ReadFile(dir + "/status")
	if err != nil {
		return 0, 0, err
	}
	rss := math.NaN()
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			rss = kb / 1024
		}
	}
	return ns / 1e9, rss, nil
}

// wireArrival is POST /ingest's arrival format.
type wireArrival struct {
	AtS   float64    `json:"at_s"`
	Name  string     `json:"name"`
	Tasks []wireTask `json:"tasks"`
}

type wireTask struct {
	Benchmark  string `json:"benchmark"`
	Size       string `json:"size"`
	Iterations int    `json:"iterations"`
}

func encodeBatch(as []check.Arrival) ([]byte, error) {
	w := make([]wireArrival, len(as))
	for i, a := range as {
		w[i] = wireArrival{
			AtS:   a.At.Seconds(),
			Name:  a.Name,
			Tasks: []wireTask{{a.Profile.Workload, a.Profile.Size, a.Iterations}},
		}
	}
	return json.Marshal(w)
}

// streamState is the part of GET /stream/state the benchmark reads.
type streamState struct {
	Events int64              `json:"events"`
	Stats  core.DispatchStats `json:"stats"`
}

// serveIngest drives `gpusched serve -stream -policy energy` over a
// 1024-GPU fleet, closed loop on one connection. The server holds no
// way to resume a snapshot, so each round starts a fresh server, fills
// it with the warm-up arrivals and then sends the timed ones: every
// round sends the same requests to the same state.
type serveIngest struct {
	bin      string
	arrivals []check.Arrival // warm-up, then timed
	// A round's requests: the warm-up batches, then the timed batches
	// with the snapshot and scrape between them.
	warm, timed []request
	srv         *server // the latest round's server
}

func (s *serveIngest) setup(cfg *config) (float64, error) {
	s.bin = cfg.gpusched
	warm := warmArrivals(serveGPUs) / batchSize
	arrivals, _, err := fleetStream(serveGPUs, warm*batchSize+roundArrivals)
	if err != nil {
		return 0, err
	}
	for i := range arrivals {
		// The instant the server parses from the wire.
		arrivals[i].At = simtime.Zero.Add(simtime.FromSeconds(arrivals[i].At.Seconds()))
	}
	s.arrivals = arrivals
	for b := 0; b < len(arrivals); b += batchSize {
		body, err := encodeBatch(arrivals[b : b+batchSize])
		if err != nil {
			return 0, err
		}
		r := request{http.MethodPost, "/ingest", body}
		if len(s.warm) < warm {
			s.warm = append(s.warm, r)
			continue
		}
		s.timed = append(s.timed, r)
		if (b/batchSize-warm+1)%snapshotEvery == 0 {
			s.timed = append(s.timed, request{http.MethodGet, "/stream/state", nil}, request{http.MethodGet, "/metrics", nil})
		}
	}
	// Set-up is timed in every round: server start and warm-up.
	return 0, nil
}

func (s *serveIngest) round(acc *accum) error {
	s.srv.stop()
	start := time.Now()
	var err error
	if s.srv, err = startServer(s.bin, serveGPUs); err != nil {
		return err
	}
	resps, err := s.srv.pipe.exchange(s.warm, nil)
	if err != nil {
		return err
	}
	acc.setups = append(acc.setups, time.Since(start).Seconds())

	var profile func() ([]byte, error)
	var flight0 int64
	if acc.traced {
		if flight0, err = s.flightRecords(); err != nil {
			return err
		}
		profile = s.profile()
		// Let the profile begin before the first timed request.
		time.Sleep(100 * time.Millisecond)
	}
	var out [][]byte
	err = acc.timed(func() error {
		var err error
		out, err = s.srv.pipe.exchange(s.timed, func(i int, d time.Duration) {
			r := s.timed[i]
			acc.span(r.method+" "+r.path, d)
			if r.path == "/ingest" {
				acc.latMS = append(acc.latMS, float64(d)/1e6)
			}
		})
		return err
	})
	if err != nil {
		return err
	}
	var snaps [][]byte
	for i, r := range s.timed {
		switch r.path {
		case "/ingest":
			resps = append(resps, out[i])
		case "/stream/state":
			snaps = append(snaps, out[i])
		}
	}
	timed := int64(len(resps)-len(s.warm)) * batchSize
	acc.ops += timed
	if acc.traced {
		if err := s.traceRound(acc, profile, flight0, timed, snaps); err != nil {
			return err
		}
	}

	// Every event is checked against a replay of the whole stream; only
	// the timed arrivals are ops.
	chk := check.NewCore(device, serveGPUs, energyClientCap)
	for i, r := range resps {
		as := s.arrivals[i*batchSize : (i+1)*batchSize]
		var evs []core.DispatchEvent
		if err := json.Unmarshal(r, &evs); err != nil {
			return fmt.Errorf("ingest response: %w", err)
		}
		if len(evs) != len(as) {
			return fmt.Errorf("ingest returned %d events for %d arrivals", len(evs), len(as))
		}
		failed, msgs, err := checkLog(chk, as, func(k int) check.Event { return fromEvent(evs[k]) })
		if err != nil {
			return err
		}
		if i < len(s.warm) {
			acc.setupChecked += int64(len(as))
			acc.setupFailed += failed
			continue
		}
		acc.addFailures(failed, msgs)
		acc.counts["response_bytes"] += float64(len(r))
	}
	for k, sn := range snaps {
		var st streamState
		if err := json.Unmarshal(sn, &st); err != nil {
			return fmt.Errorf("stream state: %w", err)
		}
		if want := int64(len(s.warm)+(k+1)*snapshotEvery) * batchSize; st.Events != want {
			return fmt.Errorf("stream state holds %d events after %d ingested", st.Events, want)
		}
	}
	return nil
}

// traceRound adds a traced round's server profile, flight records and
// dispatcher counters.
func (s *serveIngest) traceRound(acc *accum, profile func() ([]byte, error), flight0, timed int64, snaps [][]byte) error {
	data, err := profile()
	if err != nil {
		return err
	}
	if err := acc.addProfile(data, true); err != nil {
		return err
	}
	flight1, err := s.flightRecords()
	if err != nil {
		return err
	}
	acc.counts["flight_records"] += float64(flight1 - flight0)
	acc.counts["profiled_arrivals"] += float64(timed)
	var prev *streamState
	for _, sn := range snaps {
		var st streamState
		if err := json.Unmarshal(sn, &st); err != nil {
			return fmt.Errorf("stream state: %w", err)
		}
		acc.counts["state_bytes"] += float64(len(sn))
		acc.counts["states"]++
		if prev != nil {
			acc.counts["arrivals"] += float64(st.Events - prev.Events)
			acc.counts["probes"] += float64(st.Stats.Probes - prev.Stats.Probes)
			acc.counts["waits"] += float64(st.Stats.Waits - prev.Stats.Waits)
			acc.counts["completions"] += float64(st.Stats.Completions - prev.Stats.Completions)
		}
		prev = &st
	}
	return nil
}

// flightRecords reads the server's lifetime flight-record count.
func (s *serveIngest) flightRecords() (int64, error) {
	body, err := s.srv.do(request{http.MethodGet, "/debug/flight", nil})
	if err != nil {
		return 0, err
	}
	var dump struct {
		Flight struct {
			Total int64 `json:"total"`
		} `json:"flight"`
	}
	if err := json.Unmarshal(body, &dump); err != nil {
		return 0, fmt.Errorf("flight dump: %w", err)
	}
	return dump.Flight.Total, nil
}

// profile starts a profileSeconds CPU profile of the server; the
// returned function waits for it. The timed requests of a round take
// well under that, so the profile covers all of them.
func (s *serveIngest) profile() func() ([]byte, error) {
	type res struct {
		data []byte
		err  error
	}
	ch := make(chan res, 1)
	go func() {
		// A second connection: the profile request blocks while the
		// ingest connection keeps working.
		c := &http.Client{}
		defer c.CloseIdleConnections()
		resp, err := c.Get(fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", s.srv.base, profileSeconds))
		if err != nil {
			ch <- res{nil, err}
			return
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("profile: %s", resp.Status)
		}
		ch <- res{data, err}
	}()
	return func() ([]byte, error) {
		r := <-ch
		return r.data, r.err
	}
}

func (s *serveIngest) usage() (float64, float64, error) { return s.srv.usage() }

func (s *serveIngest) close() { s.srv.stop() }

func (s *serveIngest) layers(acc *accum, m map[string]float64) {
	n := acc.counts["profiled_arrivals"]
	per := func(layer string) float64 { return acc.selfNS[layer] / 1e3 / n }
	m["gpusched.self_us_per_arrival"] = per("gpusched")
	m["obs.self_us_per_arrival"] = per("obs")
	m["core.self_us_per_arrival"] = per("core")
	m["interference.self_us_per_op"] = per("interference")
	m["eventq.self_us_per_op"] = per("eventq")
	m["runtime.gc_self_us_per_op"] = per("runtime")
	m["gpusched.response_bytes_per_arrival"] = acc.counts["response_bytes"] / float64(acc.ops)
	m["gpusched.state_ms"] = acc.spanQuantile("GET /stream/state", 0.5)
	m["gpusched.state_kib"] = acc.counts["state_bytes"] / acc.counts["states"] / 1024
	m["gpusched.scrape_ms"] = acc.spanQuantile("GET /metrics", 0.5)
	_, m["gpusched.ingest_ms.p99"] = latencyQuantiles(acc.spans["POST /ingest"], 0.99)
	m["obs.flight_records_per_arrival"] = acc.counts["flight_records"] / n
	if a := acc.counts["arrivals"]; a > 0 {
		m["core.probes_per_arrival"] = acc.counts["probes"] / a
		m["core.waits_per_arrival"] = acc.counts["waits"] / a
		m["core.retirements_per_arrival"] = acc.counts["completions"] / a
		if p := acc.counts["probes"] / a * n; p > 0 {
			m["core.ns_per_probe"] = (acc.selfNS["core"] + acc.selfNS["interference"]) / p
		}
	}
}
