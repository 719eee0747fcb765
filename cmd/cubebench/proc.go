package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"
)

// bench owns everything a run leaves behind: child processes and the work
// directory (CSVs, catalog file, WAL, child logs). close is idempotent and
// also runs from the signal handler, so nothing outlives the command.
type bench struct {
	root  string // repository checkout
	out   string // <root>/.cubebench: binaries, traces, work directories
	dir   string // this run's work directory, removed on close
	cubed string // built ./cmd/cubed

	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	children []*child
	failure  error // first fatal event: a child that died on its own
	closed   bool
}

// child is one cubed process. Its stdout and stderr (cubed logs every
// request) go to a file, never a pipe the benchmark would have to drain.
type child struct {
	name     string
	cmd      *exec.Cmd
	logPath  string
	done     chan struct{} // closed once Wait has returned
	stopping bool          // set under bench.mu before a deliberate stop
}

func newBench(root string) (*bench, error) {
	out := filepath.Join(root, ".cubebench")
	if err := os.MkdirAll(filepath.Join(out, "bin"), 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return nil, err
	}
	b := &bench{root: root, out: out, dir: dir}
	b.ctx, b.cancel = context.WithCancel(context.Background())
	return b, nil
}

// buildCubed compiles ./cmd/cubed from the checkout and returns how long the
// build took (go's cache makes every build after the first a no-op check).
func (b *bench) buildCubed() (time.Duration, error) {
	b.cubed = filepath.Join(b.out, "bin", "cubed")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", b.cubed, "./cmd/cubed")
	cmd.Dir = b.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("go build ./cmd/cubed: %v\n%s", err, out)
	}
	return time.Since(start), nil
}

// freePorts reserves n distinct loopback addresses by binding port 0 and
// releasing; all are picked before any child starts so no two collide.
func freePorts(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs, nil
}

// spawn starts cubed with the given arguments. If the process exits before
// stop is called, the run fails with the tail of its log.
func (b *bench) spawn(name string, args ...string) (*child, error) {
	logPath := filepath.Join(b.dir, name+".log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(b.cubed, args...)
	cmd.Dir = b.dir
	cmd.Stdout, cmd.Stderr = logf, logf
	// If this process is killed outright, the kernel takes the children too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	c := &child{name: name, cmd: cmd, logPath: logPath, done: make(chan struct{})}

	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, errors.New("bench closed")
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	b.children = append(b.children, c)
	go func() {
		err := cmd.Wait()
		b.mu.Lock()
		if !c.stopping && b.failure == nil {
			b.failure = fmt.Errorf("child %s exited on its own (%v); log tail:\n%s", name, err, tail(logPath, 2048))
			b.cancel()
		}
		b.mu.Unlock()
		close(c.done)
	}()
	return c, nil
}

func tail(path string, n int) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	if len(data) > n {
		data = data[len(data)-n:]
	}
	return string(data)
}

// stop ends children with SIGTERM, SIGKILL after three seconds, and waits
// until each has been reaped.
func (b *bench) stop(cs ...*child) {
	b.mu.Lock()
	for _, c := range cs {
		c.stopping = true
	}
	b.mu.Unlock()
	for _, c := range cs {
		c.cmd.Process.Signal(syscall.SIGTERM)
	}
	for _, c := range cs {
		select {
		case <-c.done:
		case <-time.After(3 * time.Second):
			c.cmd.Process.Kill()
			<-c.done
		}
	}
}

// close stops every child and removes the work directory.
func (b *bench) close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	cs := b.children
	b.mu.Unlock()
	b.stop(cs...)
	b.cancel()
	os.RemoveAll(b.dir)
}

// failed returns the fatal event that cancelled the run, if any.
func (b *bench) failed() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.failure
}

// control is the client for everything outside the timed load: health
// checks, optimize, scrapes. Load connections are separate (load.go).
var control = &http.Client{Timeout: 120 * time.Second}

func (b *bench) request(method, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(b.ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := control.Do(req)
	if err != nil {
		if f := b.failed(); f != nil {
			return nil, f
		}
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %.200s", method, url, resp.StatusCode, data)
	}
	return data, nil
}

func (b *bench) get(url string) ([]byte, error) { return b.request("GET", url, nil) }

// waitHealthy polls /healthz until the process answers; a child that dies
// first cancels b.ctx and the wait returns its log tail.
func (b *bench) waitHealthy(addr string) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		if _, err := b.get("http://" + addr + "/healthz"); err == nil {
			return nil
		} else if f := b.failed(); f != nil {
			return f
		} else if b.ctx.Err() != nil {
			return b.ctx.Err()
		} else if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy after 60s: %w", addr, err)
		}
		select {
		case <-b.ctx.Done():
		case <-time.After(5 * time.Millisecond):
		}
	}
}
