package main

import (
	"bufio"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; Linux
// fixes it at 100 on every architecture Go supports.
const clockTicks = 100

// daemon is one gcolord child process.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	done   chan struct{} // closed once the process has been waited for
	err    error         // Wait's result, valid after done
	stderr *os.File
}

// daemonConfig is what a run varies between daemon starts.
type daemonConfig struct {
	bin     string
	dir     string // scratch directory for the address file and logs
	traceOn bool
}

// traceKeep is gcolord's default -trace.keep: a traced daemon runs with
// tracing as deployed.
const traceKeep = 256

// args is the daemon's command line: tracing off unless asked, one
// worker per CPU, and job timeouts far above the slowest job, so every
// run does the same work whatever the timing.
func (c daemonConfig) args(workers int, addrFile string) []string {
	keep := 0
	if c.traceOn {
		keep = traceKeep
	}
	return []string{
		"-addr", "127.0.0.1:0", "-addr.file", addrFile,
		"-workers", strconv.Itoa(workers),
		"-timeout", "10m", "-req.timeout", "-1s", "-drain", "1s",
		"-queue", "100000",
		"-trace.keep", strconv.Itoa(keep),
	}
}

// startDaemon execs gcolord and returns once /readyz answers 200,
// together with the time from exec to that first 200.
func startDaemon(c daemonConfig, workers int, client *http.Client) (*daemon, time.Duration, error) {
	addrFile := filepath.Join(c.dir, "addr")
	_ = os.Remove(addrFile) // a stale file from an earlier start would point at a dead port
	logf, err := os.OpenFile(filepath.Join(c.dir, "gcolord.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(c.bin, c.args(workers, addrFile)...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// A daemon must not outlive the benchmark, even one killed mid-run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, done: make(chan struct{}), stderr: logf}

	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("start gcolord: %w", err)
	}
	go func() {
		d.err = cmd.Wait()
		close(d.done)
	}()
	deadline := start.Add(30 * time.Second)
	for {
		if d.url == "" {
			if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
				d.url = "http://" + strings.TrimSpace(string(b))
			}
		}
		if d.url != "" {
			resp, err := client.Get(d.url + "/readyz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d, time.Since(start), nil
				}
			}
		}
		select {
		case <-d.done:
			logf.Close()
			return nil, 0, fmt.Errorf("gcolord exited before ready: %v (log in %s)", d.err, logf.Name())
		case <-time.After(200 * time.Microsecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, 0, errors.New("gcolord not ready within 30s")
		}
	}
}

// stop terminates the daemon and waits until the process has ended.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
	d.stderr.Close()
}

// procCPU is the daemon's user+system CPU time so far. It counts only
// the daemon process, not the load generator, and excludes hypervisor
// steal.
func (d *daemon) procCPU() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", s)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// peakRSS is the daemon's VmHWM in MiB.
func (d *daemon) peakRSS() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// cpuTimes is one reading of the machine-wide /proc/stat cpu line.
type cpuTimes struct{ steal, total int64 }

func readCPUTimes() (cpuTimes, error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTimes{}, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuTimes{}, errors.New("empty /proc/stat")
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTimes{}, fmt.Errorf("unexpected /proc/stat line %q", sc.Text())
	}
	var t cpuTimes
	// user nice system idle iowait irq softirq steal [guest guest_nice],
	// where guest time is already inside user.
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseInt(fields[i], 10, 64)
		if err != nil {
			return cpuTimes{}, err
		}
		t.total += v
		if i == 8 {
			t.steal = v
		}
	}
	return t, nil
}

// stealFrac is the share of machine CPU time the hypervisor stole between
// two readings.
func stealFrac(a, b cpuTimes) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}
