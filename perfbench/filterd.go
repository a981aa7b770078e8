package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"p2pmalware/internal/dataset"
	"p2pmalware/internal/filter"
	"p2pmalware/internal/filtersvc"
	"p2pmalware/internal/obs"
)

// The filterd-mixed load. Reads: one line-protocol connection sends
// batches of checkBatch probes in a closed loop. Writes: one HTTP
// connection posts an add or remove of churnChunk sizes every
// updatePeriod, on an open-loop schedule.
const (
	tailSizes    = 640 << 10 // synthetic block-list tail: 5 MiB of sizes, above per-core L2
	probeCount   = 1 << 16
	checkBatch   = 256
	churnChunk   = 64
	updatePeriod = 120 * time.Millisecond
	// verdictQuota is the unit of read work wall_s and cpu_s report:
	// the time and daemon CPU to serve this many verdicts.
	verdictQuota = 1 << 20
	// filterdSessions is how many daemons a run starts and drives in
	// turn; every metric is a median over them.
	filterdSessions = 4
	clockTicks      = 100
)

// churnBase starts the size range the writer adds and removes. No probe
// size comes near it, so every probe's membership is untouched by the
// updates and keeps the verdict of the preloaded list.
const churnBase = int64(1) << 40

type probe struct {
	line  []byte // "size\n" or "size nd\n"
	block bool   // expected verdict, from an in-process snapshot of the same list
}

// Both verdict replies have the same length, so a batch's reply has a
// fixed size and is checked with one comparison.
var verdictBlock, verdictAllow = []byte("block\n"), []byte("allow\n")

// batch is one pipelined check request and the reply it must get.
type batch struct{ req, want []byte }

// batches cuts the probes into checkBatch-line requests with their
// expected replies.
func (in *filterdInputs) batches() []batch {
	var out []batch
	for i := 0; i+checkBatch <= len(in.probes); i += checkBatch {
		var b batch
		for _, p := range in.probes[i : i+checkBatch] {
			b.req = append(b.req, p.line...)
			if p.block {
				b.want = append(b.want, verdictBlock...)
			} else {
				b.want = append(b.want, verdictAllow...)
			}
		}
		out = append(out, b)
	}
	return out
}

// filterdInputs is everything a filterd-mixed run derives from its seed.
type filterdInputs struct {
	list     []int64 // the preloaded block list
	distinct int     // distinct sizes in it
	probes   []probe
	path     string // the block-list file
}

// makeFilterdInputs trains the block list on a study of the run's seed,
// adds a seeded synthetic tail, and builds the probe mix: trained malware
// sizes, near misses of them, and honest download sizes, a tenth of
// them flagged not downloadable.
func makeFilterdInputs(o *options, r *report) (*filterdInputs, error) {
	seed := subSeed(o.seed, 0)
	res, err := runStudy(o, seed, false, "")
	r.op(err)
	if err != nil {
		return nil, err
	}
	checkTrace(r, o.exp, seed, res.trace)
	return newFilterdInputs(o, res.trace)
}

// newFilterdInputs builds the block list, probes and list file from a
// study trace.
func newFilterdInputs(o *options, tr *dataset.Trace) (*filterdInputs, error) {
	seed := subSeed(o.seed, 0)
	var trained, honest []int64
	for _, nw := range []dataset.Network{dataset.LimeWire, dataset.OpenFT} {
		trained = append(trained, filter.TrainSizeFilter(tr, nw, 0).Sizes()...)
	}
	for i := range tr.Records {
		if rec := &tr.Records[i]; rec.Downloadable && rec.Downloaded && rec.Malware == "" {
			honest = append(honest, rec.Size)
		}
	}
	if len(trained) == 0 || len(honest) == 0 {
		return nil, fmt.Errorf("seed %d: study trained %d malware sizes and saw %d honest downloads", seed, len(trained), len(honest))
	}
	rng := rand.New(rand.NewPCG(o.seed, 0xF11D))
	in := &filterdInputs{list: append([]int64(nil), trained...)}
	for len(in.list) < len(trained)+tailSizes {
		in.list = append(in.list, 16<<10+rng.Int64N(1<<30))
	}
	svc := filtersvc.New(obs.NewRegistry())
	svc.Replace(in.list, 0)
	snap := svc.Current()
	in.distinct = snap.NumSizes()
	for i := 0; i < probeCount; i++ {
		var size int64
		switch i % 3 {
		case 0:
			size = trained[rng.IntN(len(trained))]
		case 1:
			size = trained[rng.IntN(len(trained))] + 1 + rng.Int64N(512)
		default:
			size = honest[rng.IntN(len(honest))]
		}
		downloadable := rng.IntN(10) != 0
		in.probes = append(in.probes, probe{
			line:  append(filtersvc.AppendCheckLine(nil, size, downloadable), '\n'),
			block: snap.Blocks(size, downloadable),
		})
	}
	var b bytes.Buffer
	for _, v := range in.list {
		b.WriteString(strconv.FormatInt(v, 10))
		b.WriteByte('\n')
	}
	in.path = filepath.Join(o.work, "blocklist.txt")
	return in, os.WriteFile(in.path, b.Bytes(), 0o644)
}

// daemon is one running filterd.
type daemon struct {
	cmd       *exec.Cmd
	httpURL   string
	lineAddr  string
	version   uint64 // snapshot version after preload
	linesSent int64
	logDone   chan struct{}
}

var (
	httpLine    = regexp.MustCompile(`check API on (http://[^/]+)/check`)
	lineLine    = regexp.MustCompile(`line protocol on (\S+)`)
	preloadLine = regexp.MustCompile(`preloaded \d+ sizes .*\(snapshot version (\d+)\)`)
)

// spawnFilterd starts filterd on loopback with the block list and
// returns once /status reports the preloaded version and the line port
// answers a check; the duration is the set-up time.
func spawnFilterd(o *options, in *filterdInputs) (*daemon, time.Duration, error) {
	cmd := exec.Command(filepath.Join(o.bin, "filterd"), "-addr", "127.0.0.1:0", "-line-addr", "127.0.0.1:0", "-blocklist", in.path)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting filterd: %w", err)
	}
	d := &daemon{cmd: cmd, logDone: make(chan struct{})}
	sc := bufio.NewScanner(stderr)
	for d.lineAddr == "" && sc.Scan() {
		line := sc.Text()
		if m := preloadLine.FindStringSubmatch(line); m != nil {
			d.version, _ = strconv.ParseUint(m[1], 10, 64)
		} else if m := httpLine.FindStringSubmatch(line); m != nil {
			d.httpURL = m[1]
		} else if m := lineLine.FindStringSubmatch(line); m != nil {
			d.lineAddr = m[1]
		}
	}
	go func() { // drain the log so the daemon never blocks on it
		defer close(d.logDone)
		io.Copy(io.Discard, stderr)
	}()
	if d.lineAddr == "" || d.httpURL == "" || d.version == 0 {
		d.stop()
		return nil, 0, fmt.Errorf("filterd did not report its addresses and preload")
	}
	for {
		st, err := d.status()
		if err == nil && st.Version == d.version {
			if st.Sizes != in.distinct {
				d.stop()
				return nil, 0, fmt.Errorf("filterd preloaded %d distinct sizes, the list has %d", st.Sizes, in.distinct)
			}
			break
		}
		if time.Since(start) > 30*time.Second {
			d.stop()
			if err == nil {
				err = fmt.Errorf("status %+v", st)
			}
			return nil, 0, fmt.Errorf("filterd not ready after 30s: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
	c, err := net.Dial("tcp", d.lineAddr)
	if err == nil {
		_, err = c.Write(in.probes[0].line)
		if err == nil {
			d.linesSent++
			_, err = bufio.NewReader(c).ReadString('\n')
		}
		c.Close()
	}
	setup := time.Since(start)
	if err != nil {
		d.stop()
		return nil, 0, fmt.Errorf("filterd line port: %w", err)
	}
	return d, setup, nil
}

func (d *daemon) status() (filtersvc.Stats, error) {
	var st filtersvc.Stats
	resp, err := http.Get(d.httpURL + "/status")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// cpuSeconds is the daemon's user+sys CPU so far, from /proc.
func (d *daemon) cpuSeconds() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / clockTicks
}

// peakRSSMB is the daemon's peak resident set (VmHWM).
func (d *daemon) peakRSSMB() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// stop terminates the daemon and waits for it and its log reader.
func (d *daemon) stop() error {
	d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		<-d.logDone
		return err
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-done
		<-d.logDone
		return fmt.Errorf("filterd ignored SIGTERM")
	}
}

// session is the outcome of one mixed read/write window.
type session struct {
	verdicts  int64
	badLines  int64     // err replies and verdicts that disagree with the oracle
	batchUS   []float64 // round trip of each check batch
	perSecond []float64 // verdicts served in each whole second (or the window's rate if shorter)
	updateMS  []float64 // /update latency from its scheduled send time
	lagMS     []float64 // how late the generator sent each update
	updates   int64
	updateErr int64
	writeErr  int64   // writer-side connection errors
	connErr   int64   // reader-side connection errors
	cpu       float64 // daemon CPU over the window
	window    time.Duration
}

// runSession drives the closed-loop reader and the open-loop writer
// against d for the given window.
func runSession(d *daemon, in *filterdInputs, window time.Duration) (*session, error) {
	s := &session{}
	conn, err := net.Dial("tcp", d.lineAddr)
	if err != nil {
		return nil, fmt.Errorf("dialing line port: %w", err)
	}
	defer conn.Close()
	cpu0 := d.cpuSeconds()
	start := time.Now()
	end := start.Add(window)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		s.write(d, start, end)
	}()

	batches := in.batches()
	reply := make([]byte, len(batches[0].want))
	buckets := make([]float64, int(window/time.Second)+1)
	for b := 0; ; b = (b + 1) % len(batches) {
		t0 := time.Now()
		if !t0.Before(end) {
			break
		}
		if _, err := conn.Write(batches[b].req); err != nil {
			s.connErr++
			break
		}
		d.linesSent += checkBatch
		if _, err := io.ReadFull(conn, reply); err != nil {
			s.connErr++
			break
		}
		if !bytes.Equal(reply, batches[b].want) {
			// The stream may be out of step now; count and stop.
			for k := 0; k < len(reply); k += len(verdictBlock) {
				if !bytes.Equal(reply[k:k+len(verdictBlock)], batches[b].want[k:k+len(verdictBlock)]) {
					s.badLines++
				}
			}
			break
		}
		t1 := time.Now()
		s.batchUS = append(s.batchUS, us(t1.Sub(t0)))
		s.verdicts += checkBatch
		if i := int(t1.Sub(start) / time.Second); i < len(buckets) {
			buckets[i] += checkBatch
		}
	}
	s.window = time.Since(start)
	<-writerDone
	s.cpu = d.cpuSeconds() - cpu0
	if whole := int(s.window / time.Second); whole > 0 {
		s.perSecond = buckets[:whole]
	} else {
		s.perSecond = []float64{float64(s.verdicts) / s.window.Seconds()}
	}
	return s, nil
}

// write posts the update schedule. Each request is timed from when it
// was due, so a stalled daemon or generator shows as latency and lag
// instead of as a lower rate.
func (s *session) write(d *daemon, start, end time.Time) {
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	chunk := make([]int64, churnChunk)
	last := d.version
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * updatePeriod)
		if !due.Before(end) {
			return
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		s.lagMS = append(s.lagMS, ms(time.Since(due)))
		for i := range chunk {
			chunk[i] = churnBase + int64((k/2)%64*churnChunk+i)
		}
		op := "add"
		if k%2 == 1 {
			op = "remove"
		}
		body, _ := json.Marshal(map[string][]int64{op: chunk})
		s.updates++
		resp, err := client.Post(d.httpURL+"/update", "application/json", bytes.NewReader(body))
		if err != nil {
			s.writeErr++
			continue
		}
		var ur struct {
			Version uint64 `json:"version"`
		}
		derr := json.NewDecoder(resp.Body).Decode(&ur)
		resp.Body.Close()
		s.updateMS = append(s.updateMS, ms(time.Since(due)))
		if resp.StatusCode != http.StatusOK || derr != nil || ur.Version != last+1 {
			s.updateErr++
		}
		last = ur.Version
	}
}

// checkSession applies the daemon-side output checks after a window.
func checkSession(r *report, d *daemon, s *session, wantVersion uint64) {
	r.check(s.badLines == 0, "%d of %d verdicts were err lines or disagreed with an in-process snapshot of the same list", s.badLines, s.verdicts)
	r.check(s.updateErr == 0, "%d of %d updates failed or did not advance the version by exactly one", s.updateErr, s.updates)
	r.check(s.connErr+s.writeErr == 0, "%d connection errors", s.connErr+s.writeErr)
	st, err := d.status()
	r.check(err == nil, "reading /status: %v", err)
	r.check(st.Checks == d.linesSent, "/status counts %d checks, %d lines were sent", st.Checks, d.linesSent)
	r.check(st.Version == wantVersion, "/status reports version %d, want %d", st.Version, wantVersion)
	r.attempted += int(s.verdicts + s.updates)
	r.failed += int(s.badLines + s.updateErr + s.connErr + s.writeErr)
}

// runFilterdE2E measures filterdSessions daemons in turn, each started
// from scratch (its start-up is one setup_s sample) and then driven for
// an equal share of the window; the metrics are medians over them.
func runFilterdE2E(o *options, r *report) error {
	in, err := makeFilterdInputs(o, r)
	if err != nil {
		return err
	}
	all := &session{}
	var setups, cpus, rss []float64
	for i := 0; i < filterdSessions; i++ {
		d, setup, err := spawnFilterd(o, in)
		r.op(err)
		if err != nil {
			return err
		}
		s, err := runSession(d, in, time.Duration(o.seconds)*time.Second/filterdSessions)
		if err != nil {
			d.stop()
			return err
		}
		checkSession(r, d, s, d.version+uint64(s.updates))
		rss = append(rss, d.peakRSSMB())
		if err := d.stop(); err != nil {
			r.check(false, "filterd exit: %v", err)
		}
		setups = append(setups, setup.Seconds())
		cpus = append(cpus, s.cpu/float64(s.verdicts)*verdictQuota)
		all.merge(s)
	}
	r.add("setup_s", "s", setups...)
	r.put("wall_s", "s", invert(summarize(all.perSecond), verdictQuota))
	r.add("cpu_s", "s", cpus...)
	r.add("peak_rss_mb", "MiB", rss...)
	r.add("lat_p50_ms", "ms", all.updateMS...)
	r.put("lat_tail_ms", "ms", tail(all.updateMS, 90))
	reportSession(r, all)
	return nil
}

// merge folds another session's samples and counts into s.
func (s *session) merge(o *session) {
	s.verdicts += o.verdicts
	s.badLines += o.badLines
	s.batchUS = append(s.batchUS, o.batchUS...)
	s.perSecond = append(s.perSecond, o.perSecond...)
	s.updateMS = append(s.updateMS, o.updateMS...)
	s.lagMS = append(s.lagMS, o.lagMS...)
	s.updates += o.updates
	s.updateErr += o.updateErr
	s.writeErr += o.writeErr
	s.connErr += o.connErr
	s.cpu += o.cpu
	s.window += o.window
}

// reportSession adds the filterd-specific metrics that the generic
// end-to-end set folds together.
func reportSession(r *report, s *session) {
	r.put("checks_per_s", "1/s", summarize(s.perSecond))
	r.add("check_batch_p50_us", "us", s.batchUS...)
	r.put("check_batch_p99_us", "us", tail(s.batchUS, 99))
	r.add("check_cpu_ns", "ns", s.cpu/float64(s.verdicts)*1e9)
	r.add("update_p50_ms", "ms", s.updateMS...)
	r.put("update_p95_ms", "ms", tail(s.updateMS, 95))
	r.add("bench.writer_lag_ms.p50", "ms", s.lagMS...)
	r.put("bench.writer_lag_ms.p99", "ms", tail(s.lagMS, 99))
	sent := float64(s.verdicts + s.updates)
	r.add("ops_failed_pct", "%", 100*float64(s.badLines+s.updateErr+s.connErr+s.writeErr)/sent)
}

// invert turns a rate summary into the time for k units; the quartiles
// swap because a higher rate is a shorter time.
func invert(rate summary, k float64) summary {
	if rate.Median == 0 || rate.Q1 == 0 || rate.Q3 == 0 {
		return summary{N: rate.N}
	}
	return summary{Median: k / rate.Median, Q1: k / rate.Q3, Q3: k / rate.Q1, N: rate.N}
}
