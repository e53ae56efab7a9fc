package obs

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"
)

func TestStartProfilesDisabled(t *testing.T) {
	if (ProfileConfig{}).Enabled() {
		t.Fatal("zero config reports enabled")
	}
	stop, addr, err := StartProfiles(ProfileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if addr != "" {
		t.Fatalf("no listener requested, got addr %q", addr)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

// TestTaskUntracedAllocatesNothing: with no execution trace running a
// task and a region cost nothing a hot caller (RunLoad, once per call)
// would notice — the context comes back as given, nothing allocates.
func TestTaskUntracedAllocatesNothing(t *testing.T) {
	ctx := context.WithValue(context.Background(), t, 1)
	if got, end := Task(ctx, "untraced"); got != ctx {
		t.Fatal("untraced Task replaced the context")
	} else {
		end()
	}
	allocs := testing.AllocsPerRun(100, func() {
		tctx, end := Task(ctx, "untraced")
		Region(tctx, "drive")()
		end()
	})
	if allocs != 0 {
		t.Fatalf("untraced Task+Region allocate %v times per call, want 0", allocs)
	}
}

func TestStartProfilesFiles(t *testing.T) {
	dir := t.TempDir()
	cfg := ProfileConfig{
		CPUFile:   filepath.Join(dir, "cpu.pprof"),
		MemFile:   filepath.Join(dir, "mem.pprof"),
		TraceFile: filepath.Join(dir, "trace.out"),
	}
	if !cfg.Enabled() {
		t.Fatal("config reports disabled")
	}
	stop, _, err := StartProfiles(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Annotated work so the execution trace has content.
	ctx, end := Task(context.Background(), "test-task")
	func() {
		defer Region(ctx, "busy")()
		sum := 0
		for i := 0; i < 1_000_00; i++ {
			sum += i
		}
		_ = sum
	}()
	end()
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{cfg.CPUFile, cfg.MemFile, cfg.TraceFile} {
		st, err := os.Stat(f)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if st.Size() == 0 {
			t.Fatalf("%s is empty", f)
		}
	}
}

func TestStartProfilesHTTP(t *testing.T) {
	stop, addr, err := StartProfiles(ProfileConfig{HTTPAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/pprof/cmdline", addr))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof endpoint status %d", resp.StatusCode)
	}
}

func TestStartProfilesBadPath(t *testing.T) {
	_, _, err := StartProfiles(ProfileConfig{CPUFile: filepath.Join(t.TempDir(), "no", "such", "dir", "cpu")})
	if err == nil {
		t.Fatal("expected error for uncreatable profile file")
	}
}
