package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workloadCap bounds one whole workload run, every child of it included.
const workloadCap = 170 * time.Second

// setupRuns is how many times an untraced run sets the workload up: in the
// measuring child and in setupRuns−1 children that exit once they are set
// up. setup_s is the median of them. More would be steadier, but one set-up
// of hks_n16 takes 5 to 7 s of a run that has about 35 s.
const setupRuns = 2

// runConfig is one workload run as the parent sees it.
type runConfig struct {
	def     workloadDef
	seed    int64
	seconds float64
	trace   int
	width   int  // diagnostic GOMAXPROCS override; 0 runs the workload as defined
	tiny    bool // test shape: logN=10, two ops
	outDir  string
}

// hostInfo is stamped on every output.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	KernelTier string `json:"modarith.kernel_tier"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

// runResult is what one workload run reports.
type runResult struct {
	Workload   string    `json:"workload"`
	Trace      int       `json:"trace"`
	Procs      int       `json:"gomaxprocs"`
	Diagnostic bool      `json:"diagnostic"`
	Attempted  int       `json:"attempted"`
	Failed     int       `json:"failed"`
	Samples    int       `json:"samples"`
	TailQ      float64   `json:"tail_quantile"`
	TailBeyond int       `json:"tail_samples_beyond"`
	TailOver   int       `json:"tail_samples"`           // ops the tail is taken over: the quiet blocks of a long pass, else all
	SetupS     []float64 `json:"setup_s_each,omitempty"` // every set-up of an untraced run; setup_s is their median
	Metrics    metricSet `json:"metrics"`
	OpMs       []float64 `json:"op_ms"` // per op, in completion order; a failed op reads the deadline
	Errors     []string  `json:"errors,omitempty"`
	Host       hostInfo  `json:"host"`
}

func (r runResult) correct() bool { return r.Failed == 0 && r.Attempted > 0 }

// benchWidth is the GOMAXPROCS of the multi-core workloads.
func benchWidth() int { return min(runtime.NumCPU(), 4) }

// outcome is what the parent learned from one child process.
type outcome struct {
	events   []event
	setupS   float64 // process start → its setup event; 0 if it never came
	killed   bool    // the watchdog or the cap ended it
	exitErr  error
	maxRSSMB float64
}

// spawn re-execs this binary as a workload child under the given GOMAXPROCS
// and reads its event stream. A goroutine cannot be cancelled, so a child
// whose op spins is killed: silence for longer than deadline, or a run past
// limit, ends the process. spawn returns once the child has been waited for.
func spawn(procs int, args []string, deadline, limit time.Duration) (outcome, error) {
	self, err := os.Executable()
	if err != nil {
		return outcome{}, err
	}
	cmd := exec.Command(self, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1", "GOMAXPROCS="+strconv.Itoa(procs))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return outcome{}, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return outcome{}, err
	}
	lines := make(chan event)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 1<<20), 1<<24)
		for sc.Scan() {
			var e event
			if json.Unmarshal(sc.Bytes(), &e) == nil {
				lines <- e
			}
		}
	}()

	var o outcome
	capTimer := time.NewTimer(limit)
	defer capTimer.Stop()
	silence := time.NewTimer(deadline)
	defer silence.Stop()
	kill := func() {
		o.killed = true
		_ = cmd.Process.Kill() // it may have just exited; Wait below reports either way
	}
loop:
	for {
		select {
		case e, ok := <-lines:
			if !ok {
				break loop
			}
			if e.Ev == "setup" {
				o.setupS = time.Since(start).Seconds()
			}
			o.events = append(o.events, e)
			if !silence.Stop() {
				select {
				case <-silence.C:
				default:
				}
			}
			silence.Reset(deadline)
		case <-silence.C:
			kill()
		case <-capTimer.C:
			kill()
		}
	}
	o.exitErr = cmd.Wait()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		o.maxRSSMB = float64(ru.Maxrss) / 1e6 // the high-water mark: VmHWM
		if runtime.GOOS == "linux" {
			o.maxRSSMB *= 1024 // Linux reports KiB, the BSDs bytes
		}
	}
	return o, nil
}

func childArgs(c runConfig) []string {
	args := []string{"-workload", c.def.name, "-seed", strconv.FormatInt(c.seed, 10),
		"-seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64), "-trace", strconv.Itoa(c.trace)}
	if c.tiny {
		args = append(args, "-tiny")
	}
	if c.outDir != "" {
		args = append(args, "-out", c.outDir)
	}
	return args
}

// runWorkload runs one workload in its own process and turns the child's
// event stream into the metric set. It always returns a complete set: ops a
// killed child left undone count as failed, at the deadline's latency.
func runWorkload(c runConfig) (runResult, error) {
	start := time.Now()
	res := runResult{Workload: c.def.name, Trace: c.trace, Procs: c.def.procs, Metrics: metricSet{}}
	if res.Procs == 0 {
		res.Procs = benchWidth()
	}
	if c.width > 0 {
		res.Procs, res.Diagnostic = c.width, true
	}
	deadline := time.Duration(c.def.deadlineS * float64(time.Second))
	left := func() time.Duration { return workloadCap - time.Since(start) }

	o, err := spawn(res.Procs, childArgs(c), deadline, left())
	if err != nil {
		return res, err
	}
	var (
		lat []float64 // per op, in completion order; a failed op reads the deadline
		ok  []bool
	)
	minBits, planned, clients, tier, level := math.Inf(1), 0, 1, "", 0
	layers := metricSet{}
	for _, e := range o.events {
		switch e.Ev {
		case "plan":
			planned, clients = e.Ops, max(e.Clients, 1)
		case "setup":
			tier = e.Note
		case "op":
			res.Attempted++
			if e.Err == "" && e.Bits < c.def.floorBits {
				e.Err = fmt.Sprintf("worst slot is precise to %.1f bits, below the floor of %.0f", e.Bits, c.def.floorBits)
			}
			if e.Err != "" { // a failed op misses every latency limit
				res.Failed++
				res.Errors = append(res.Errors, e.Err)
				e.Ms = c.def.deadlineS * 1e3
			} else {
				minBits, level = math.Min(minBits, e.Bits), e.Level
			}
			lat, ok = append(lat, e.Ms), append(ok, e.Err == "")
		case "layers":
			layers = e.Layers
		case "error":
			res.Errors = append(res.Errors, e.Err)
		}
	}
	finished := !o.killed && o.exitErr == nil
	if !finished {
		// The op in flight and every op not yet attempted are lost; each
		// counts as having waited the whole deadline.
		for lost := max(planned-res.Attempted, 1); lost > 0; lost-- {
			res.Attempted++
			res.Failed++
			lat, ok = append(lat, c.def.deadlineS*1e3), append(ok, false)
		}
		switch {
		case o.killed:
			res.Errors = append(res.Errors, fmt.Sprintf("watchdog: no progress within %v at GOMAXPROCS=%d; child killed", deadline, res.Procs))
		default:
			res.Errors = append(res.Errors, "child: "+o.exitErr.Error())
		}
	}
	res.Samples, res.OpMs = len(lat), lat
	// A failed op misses every latency limit: it may not be trimmed away.
	tailOps := lat
	if res.Failed == 0 {
		tailOps = quietOps(lat)
	}
	res.TailOver = len(tailOps)
	res.TailQ, res.TailBeyond = tailQuantile(len(tailOps))
	res.Host = hostInfo{NProc: runtime.NumCPU(), CPU: cpuModel(), KernelTier: tier,
		GoVersion: runtime.Version(), Commit: vcsRevision(), Seed: c.seed}
	if c.trace != 0 {
		res.Metrics = layers.complete(perLayerDefs)
		return res, nil
	}

	// A run that did not finish has no set-up worth repeating: a hung child
	// would only hang again. Its set-up reads whatever it got to.
	setups := []float64{o.setupS}
	if o.setupS == 0 {
		setups[0] = time.Since(start).Seconds()
	}
	only := append(childArgs(c), "-setup-only")
	for finished && len(setups) < setupRuns && left() > 0 {
		so, err := spawn(res.Procs, only, deadline, left())
		if err != nil {
			return res, err
		}
		if so.setupS == 0 {
			res.Errors = append(res.Errors, "a repeated set-up did not finish")
			break
		}
		setups = append(setups, so.setupS)
	}
	if math.IsInf(minBits, 1) {
		minBits = 0
	}
	res.SetupS = setups
	res.Metrics = metricSet{
		"setup_s":        median(setups),
		"op_p50_ms":      median(lat),
		"op_tail_ms":     percentile(tailOps, res.TailQ),
		"ops_per_s":      throughput(lat, ok, clients),
		"precision_bits": minBits,
		"peak_rss_mb":    o.maxRSSMB,
		"failed_ratio":   float64(res.Failed) / float64(res.Attempted),
	}
	if level > 0 { // the paper's T_boot,eff: time per level the bootstrap gives back
		res.Metrics["tboot_eff_ms"] = median(lat) / float64(level)
	}
	return res, nil
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is set by run.sh at link time; a binary built by hand reads the
// revision go stamped, if it stamped one.
var commit string

func vcsRevision() string {
	if commit != "" {
		return commit
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
