package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// env is what every workload run shares.
type env struct {
	seed    int64
	seconds float64 // length of the timed part
	quick   bool    // tiny sizes, labelled, refused by compare against full scale
	root    string  // repository root (module bba)
	nproc   int
	built   map[string]bool
	buildS  float64 // seconds the one-off `go build` of the daemons took
	// store is archive-query's prepared input (prepareQuery).
	store *queryStore
	// daemonCPUs is set while the generator is pinned: the CPUs it left to
	// the daemons, which startDaemon hands them.
	daemonCPUs []int
}

// newEnv finds the repository and sizes a run.
func newEnv(seed int64, seconds float64, quick bool) (*env, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	return &env{seed: seed, seconds: seconds, quick: quick, root: root, nproc: runtime.NumCPU(), built: map[string]bool{}}, nil
}

// scale picks the full-scale or the -quick size.
func (e *env) scale(full, quick int) int {
	if e.quick {
		return quick
	}
	return full
}

// repoRoot finds the directory holding module bba's go.mod, walking up
// from the working directory: the driver and `go run -C bench` start the
// benchmark at the root or in bench/, tests start in bench/.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(data, []byte("module bba\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: module bba not found above the working directory; run from the repository")
		}
		dir = parent
	}
}

// Everything the benchmark writes lives under .bench_build/ in the
// checkout (git-ignored) or bench/out/: built daemons, daemon stores,
// spill dirs. Nothing is written to /tmp or to fixed ports.
func (e *env) binDir() string  { return filepath.Join(e.root, ".bench_build", "bin") }
func (e *env) tmpBase() string { return filepath.Join(e.root, ".bench_build", "tmp") }
func (e *env) outDir() string  { return filepath.Join(e.root, "bench", "out") }

// tempDir makes a scratch directory that is removed on every exit path.
func (e *env) tempDir(prefix string) (string, error) {
	if err := os.MkdirAll(e.tmpBase(), 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(e.tmpBase(), prefix+"-*")
	if err != nil {
		return "", err
	}
	onExit(func() { os.RemoveAll(dir) })
	return dir, nil
}

// cleanups run on every exit path: normal return, failed check, signal.
var cleanups struct {
	mu  sync.Mutex
	fns []func()
}

func onExit(fn func()) {
	cleanups.mu.Lock()
	cleanups.fns = append(cleanups.fns, fn)
	cleanups.mu.Unlock()
}

func runCleanups() {
	cleanups.mu.Lock()
	fns := cleanups.fns
	cleanups.fns = nil
	cleanups.mu.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i]()
	}
}

// buildDaemons builds the named cmd/ binaries once per process into
// .bench_build/bin. The time is reported as build_s and kept out of
// setup_s: it measures the toolchain, not the system.
func (e *env) buildDaemons(names ...string) error {
	var pkgs []string
	for _, n := range names {
		if !e.built[n] {
			pkgs = append(pkgs, "./cmd/"+n)
		}
	}
	if len(pkgs) == 0 {
		return nil
	}
	if err := os.MkdirAll(e.binDir(), 0o755); err != nil {
		return err
	}
	t0 := time.Now()
	cmd := exec.Command("go", append([]string{"build", "-o", e.binDir() + string(filepath.Separator)}, pkgs...)...)
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build %v: %v\n%s", pkgs, err, out)
	}
	e.buildS += time.Since(t0).Seconds()
	for _, n := range names {
		e.built[n] = true
	}
	return nil
}

// daemon is one program under test, started in its own process group.
type daemon struct {
	name   string
	cmd    *exec.Cmd
	addr   string // host:port parsed from the daemon's first stdout line
	stderr bytes.Buffer
	waited chan struct{}
	err    error // cmd.Wait's result, valid once waited is closed
	once   sync.Once
}

var addrLine = regexp.MustCompile(`http://([0-9.]+:[0-9]+)`)

// setAffinity confines thread tid (0: the calling thread) to cpus.
func setAffinity(tid int, cpus []int) error {
	var mask [16]uint64
	for _, c := range cpus {
		mask[c/64] |= 1 << (c % 64)
	}
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return errno
	}
	return nil
}

// allowedCPUs lists the CPUs this process may run on, in ascending order.
func allowedCPUs() ([]int, error) {
	var mask [16]uint64
	n, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	if errno != 0 {
		return nil, errno
	}
	var cpus []int
	for c := 0; c < int(n)*8; c++ {
		if mask[c/64]&(1<<(c%64)) != 0 {
			cpus = append(cpus, c)
		}
	}
	return cpus, nil
}

// pinSelf confines every thread of this process to cpus; threads started
// later inherit the mask. Left to itself the kernel moves the generator's
// one busy thread and the daemon's threads across both cores, and a run
// measures where they happened to land.
func pinSelf(cpus []int) error {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		// A thread may exit between the listing and the call.
		if err := setAffinity(tid, cpus); err != nil && err != syscall.ESRCH {
			return err
		}
	}
	return nil
}

// pinGenerator gives the load generator the first CPU it may use and,
// through startDaemon, the daemon under test the others: GOMAXPROCS=1
// against GOMAXPROCS=nproc-1 made concrete. The returned function lifts
// the pin. With one CPU there is nothing to separate.
func (e *env) pinGenerator() (unpin func(), err error) {
	cpus, err := allowedCPUs()
	if err != nil {
		return nil, fmt.Errorf("reading the CPU affinity: %w", err)
	}
	if len(cpus) < 2 {
		return func() {}, nil
	}
	if err := pinSelf(cpus[:1]); err != nil {
		return nil, fmt.Errorf("pinning the generator to CPU %d: %w", cpus[0], err)
	}
	e.daemonCPUs = cpus[1:]
	return func() {
		e.daemonCPUs = nil
		pinSelf(cpus)
	}, nil
}

// startDaemon boots a built daemon with GOMAXPROCS = max(1, nproc-1) on the
// CPUs the generator does not use, and waits for the ":0" address it
// prints.
func (e *env) startDaemon(name string, args ...string) (*daemon, error) {
	d := &daemon{name: name, waited: make(chan struct{})}
	d.cmd = exec.Command(filepath.Join(e.binDir(), name), args...)
	procs := e.nproc - 1
	if procs < 1 {
		procs = 1
	}
	d.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	d.cmd.Stderr = &d.stderr
	// Own process group, so kill reaches anything the daemon forks; and the
	// daemon dies with the benchmark even when cleanups cannot run.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	// A child inherits the affinity of the thread that forks it.
	runtime.LockOSThread()
	own, _ := allowedCPUs()
	if e.daemonCPUs != nil {
		err = setAffinity(0, e.daemonCPUs)
	}
	if err == nil {
		err = d.cmd.Start()
	}
	if e.daemonCPUs != nil {
		setAffinity(0, own)
	}
	runtime.UnlockOSThread()
	if err != nil {
		return nil, err
	}
	onExit(d.kill)

	lines := make(chan string, 1)
	go func() {
		br := bufio.NewReader(stdout)
		line, _ := br.ReadString('\n')
		lines <- line
		io.Copy(io.Discard, br)
		d.err = d.cmd.Wait()
		close(d.waited)
	}()
	select {
	case line := <-lines:
		m := addrLine.FindStringSubmatch(line)
		if m == nil {
			d.kill()
			return nil, fmt.Errorf("%s: no listen address in %q (stderr: %s)", name, line, d.stderr.String())
		}
		d.addr = m[1]
		return d, nil
	case <-time.After(15 * time.Second):
		d.kill()
		return nil, fmt.Errorf("%s: no listen address within 15s", name)
	}
}

// stop asks the daemon to drain (SIGTERM) and waits for a clean exit.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-d.waited:
		if d.err != nil {
			return fmt.Errorf("%s: %v (stderr: %s)", d.name, d.err, d.stderr.String())
		}
		return nil
	case <-time.After(30 * time.Second):
		d.kill()
		return fmt.Errorf("%s: did not exit within 30s of SIGTERM", d.name)
	}
}

// kill ends the daemon's whole process group and waits until it is gone.
// It is safe to call after stop and more than once.
func (d *daemon) kill() {
	d.once.Do(func() {
		select {
		case <-d.waited:
			return
		default:
		}
		syscall.Kill(-d.cmd.Process.Pid, syscall.SIGKILL)
		<-d.waited
	})
}

// cpu is the daemon's user+system CPU time so far.
func (d *daemon) cpu() time.Duration { return cpuClock(d.cmd.Process.Pid) }

// selfCPU is this process's user+system CPU time so far.
func selfCPU() time.Duration { return cpuClock(0) }

// cpuClock reads a process's CPU-time clock (pid 0: this process) with
// clock_gettime. /proc/<pid>/stat and getrusage count in scheduler ticks
// of 4-10 ms, too coarse for quarter-second windows; the CPU clock counts
// nanoseconds and includes threads that have exited.
func cpuClock(pid int) time.Duration {
	id := uintptr(2) // CLOCK_PROCESS_CPUTIME_ID
	if pid != 0 {
		id = uintptr(^pid)<<3 | 2 // the kernel's MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED)
	}
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		// Only a process that is gone has no clock; its windows end here.
		return 0
	}
	return time.Duration(ts.Nano())
}

// setPeakRSS reports the daemon's peak resident memory (VmHWM) so far.
func (r *runResult) setPeakRSS(d *daemon) error {
	path := fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid)
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			kb, err := strconv.ParseFloat(string(bytes.TrimSuffix(bytes.TrimSpace(rest), []byte(" kB"))), 64)
			if err != nil {
				return fmt.Errorf("%s: VmHWM %q", path, rest)
			}
			r.set("peak_rss_mb", "MB", kb/1024, 0)
			return nil
		}
	}
	return fmt.Errorf("%s: no VmHWM line", path)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return err
	})
	return n, err
}
