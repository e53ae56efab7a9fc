package obs

import (
	"context"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers the /debug/pprof handlers
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// ProfileConfig selects the profiling hooks a CLI run arms. Empty
// fields are disabled; the zero value is a no-op.
type ProfileConfig struct {
	// CPUFile receives a CPU profile covering the run.
	CPUFile string
	// MemFile receives a heap profile taken when the run stops.
	MemFile string
	// TraceFile receives a runtime/trace execution trace; the pipeline
	// phases show up as tasks and regions (see Task and Region).
	TraceFile string
	// HTTPAddr serves net/http/pprof (live profiling of long runs).
	HTTPAddr string
}

// Enabled reports whether any hook is armed.
func (c ProfileConfig) Enabled() bool {
	return c.CPUFile != "" || c.MemFile != "" || c.TraceFile != "" || c.HTTPAddr != ""
}

// StartProfiles arms the configured hooks and returns a stop function
// that ends profiles, writes the heap snapshot and closes everything.
// The stop function must be called exactly once.
func StartProfiles(c ProfileConfig) (stop func() error, addr string, err error) {
	var stops []func() error
	fail := func(err error) (func() error, string, error) {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]() //nolint:errcheck // best-effort unwind
		}
		return nil, "", err
	}

	if c.HTTPAddr != "" {
		ln, err := net.Listen("tcp", c.HTTPAddr)
		if err != nil {
			return fail(fmt.Errorf("obs: pprof listener: %w", err))
		}
		addr = ln.Addr().String()
		srv := &http.Server{Handler: http.DefaultServeMux}
		go srv.Serve(ln) //nolint:errcheck // closed by stop
		stops = append(stops, func() error {
			return srv.Close()
		})
	}

	if c.CPUFile != "" {
		f, err := os.Create(c.CPUFile)
		if err != nil {
			return fail(fmt.Errorf("obs: cpu profile: %w", err))
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(fmt.Errorf("obs: cpu profile: %w", err))
		}
		stops = append(stops, func() error {
			pprof.StopCPUProfile()
			return f.Close()
		})
	}

	if c.TraceFile != "" {
		f, err := os.Create(c.TraceFile)
		if err != nil {
			return fail(fmt.Errorf("obs: runtime trace: %w", err))
		}
		if err := trace.Start(f); err != nil {
			f.Close()
			return fail(fmt.Errorf("obs: runtime trace: %w", err))
		}
		stops = append(stops, func() error {
			trace.Stop()
			return f.Close()
		})
	}

	memFile := c.MemFile
	return func() error {
		var first error
		if memFile != "" {
			if err := writeHeapProfile(memFile); err != nil {
				first = err
			}
		}
		for i := len(stops) - 1; i >= 0; i-- {
			if err := stops[i](); err != nil && first == nil {
				first = err
			}
		}
		return first
	}, addr, nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: heap profile: %w", err)
	}
	defer f.Close()
	runtime.GC() // materialise the live set
	if err := pprof.WriteHeapProfile(f); err != nil {
		return fmt.Errorf("obs: heap profile: %w", err)
	}
	return nil
}

// Task opens a runtime/trace task annotating one pipeline phase (a
// RunLoad, an experiment). With no execution trace running it returns
// ctx unchanged and a no-op closer, allocating nothing.
func Task(ctx context.Context, name string) (context.Context, func()) {
	if !trace.IsEnabled() {
		return ctx, noop
	}
	ctx, task := trace.NewTask(ctx, name)
	return ctx, task.End
}

// Region annotates a sub-phase inside a task. Returns the closer, a
// no-op when no execution trace is running.
func Region(ctx context.Context, name string) func() {
	if !trace.IsEnabled() {
		return noop
	}
	return trace.StartRegion(ctx, name).End
}

func noop() {}
