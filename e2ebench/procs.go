package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one production server process the benchmark started.
type proc struct {
	cmd   *exec.Cmd
	url   string
	setup time.Duration // exec to first successful call
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// launch execs bin with args plus a fresh loopback -addr, and waits
// for its first successful call. stderr goes to logPath.
func launch(bin string, args []string, logPath string) (*proc, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, append(args, "-addr", addr)...)
	cmd.Stderr = logf
	// The kernel kills the server if the benchmark dies first.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p := &proc{cmd: cmd, url: "http://" + addr}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	if err := waitReady(p.url, t0, 60*time.Second); err != nil {
		p.stop()
		return nil, fmt.Errorf("%s: %w (log: %s)", filepath.Base(bin), err, logPath)
	}
	p.setup = time.Since(t0)
	return p, nil
}

// stop kills the process and waits for it to exit.
func (p *proc) stop() {
	_ = p.cmd.Process.Kill() // fails only if it already exited; Wait reaps either way
	_ = p.cmd.Wait()         // a killed process always reports the signal
}

// waitReady polls base with a DescribeVpcs on the default session until
// it answers 200, or timeout after t0 passes.
func waitReady(base string, t0 time.Time, timeout time.Duration) error {
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()
	for {
		resp, err := client.Post(base+"/v2/ec2?Action=DescribeVpcs", "application/json", nil)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained only to reuse nothing; errors are moot
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		if time.Since(t0) > timeout {
			return fmt.Errorf("not ready after %s: %v", timeout, err)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// prodStack is one workload's production processes: the nodes and,
// when routed, the router in front of them.
type prodStack struct {
	nodes  []*proc
	router *proc
}

func (s *prodStack) entry() string {
	if s.router != nil {
		return s.router.url
	}
	return s.nodes[0].url
}

func (s *prodStack) procs() []*proc {
	out := append([]*proc(nil), s.nodes...)
	if s.router != nil {
		out = append(out, s.router)
	}
	return out
}

// setup sums exec-to-first-call over the processes.
func (s *prodStack) setup() time.Duration {
	var d time.Duration
	for _, p := range s.procs() {
		d += p.setup
	}
	return d
}

func (s *prodStack) stop() {
	for _, p := range s.procs() {
		p.stop()
	}
}

// startProd launches w's production stack one process at a time, so
// each process's set-up is its own. dir receives logs and, for a
// durable workload, a data directory no earlier stack has used.
func startProd(binDir string, w workload, backend, dir string) (*prodStack, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st := &prodStack{}
	count := max(1, w.nodes)
	var members []string
	for i := 0; i < count; i++ {
		args := []string{"-service", "ec2", "-backend", backend}
		if w.nodes > 0 {
			args = append(args, "-node", nodeName(i))
		}
		if w.dataDir {
			args = append(args, "-data-dir", filepath.Join(dir, fmt.Sprintf("data-%d", i)), "-sessions", strconv.Itoa(residentSlots))
		}
		p, err := launch(filepath.Join(binDir, "lce-server"), args, filepath.Join(dir, fmt.Sprintf("server-%d.log", i)))
		if err != nil {
			st.stop()
			return nil, err
		}
		st.nodes = append(st.nodes, p)
		members = append(members, nodeName(i)+"="+p.url)
	}
	if w.nodes > 0 {
		p, err := launch(filepath.Join(binDir, "lce-router"), []string{"-nodes", strings.Join(members, ",")}, filepath.Join(dir, "router.log"))
		if err != nil {
			st.stop()
			return nil, err
		}
		st.router = p
	}
	return st, nil
}

// cpuTime is a process's user+system CPU from /proc/<pid>/stat
// (pid "self" for the benchmark itself).
func cpuTime(pid string) (time.Duration, error) {
	raw, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields overall, in clock ticks of 1/100 s.
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%s/stat", pid)
	}
	var ticks int64
	for _, x := range f[11:13] {
		v, err := strconv.ParseInt(x, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%s/stat: %v", pid, err)
		}
		ticks += v
	}
	return time.Duration(ticks) * 10 * time.Millisecond, nil
}

// serverCPU sums CPU time over the stack's processes.
func (s *prodStack) serverCPU() (time.Duration, error) {
	var sum time.Duration
	for _, p := range s.procs() {
		d, err := cpuTime(strconv.Itoa(p.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		sum += d
	}
	return sum, nil
}

// peakRSS sums VmHWM (peak resident set) over the stack's processes,
// in MiB.
func (s *prodStack) peakRSS() (float64, error) {
	var kb int64
	for _, p := range s.procs() {
		raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		found := false
		for _, line := range strings.Split(string(raw), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				n, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
				if err != nil {
					return 0, fmt.Errorf("VmHWM: %v", err)
				}
				kb += n
				found = true
			}
		}
		if !found {
			return 0, fmt.Errorf("no VmHWM for pid %d", p.cmd.Process.Pid)
		}
	}
	return float64(kb) / 1024, nil
}

// evictions sums the nodes' idle and capacity evictions from
// GET /v2/sessions.
func (s *prodStack) evictions() (int64, error) {
	var sum int64
	for _, p := range s.nodes {
		resp, err := http.Get(p.url + "/v2/sessions")
		if err != nil {
			return 0, err
		}
		var st struct {
			Idle     int64 `json:"idleEvictions"`
			Capacity int64 `json:"capacityEvictions"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return 0, fmt.Errorf("/v2/sessions: %v", err)
		}
		sum += st.Idle + st.Capacity
	}
	return sum, nil
}
