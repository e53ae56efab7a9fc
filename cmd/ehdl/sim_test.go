package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// sim runs the sim subcommand and returns its exit status and stdout.
func sim(t *testing.T, args ...string) (int, string) {
	t.Helper()
	code, stdout, _ := runCmd(t, append([]string{"sim"}, args...)...)
	return code, stdout
}

// TestFlagValidation pins sim's usage gate: every conflicting flag
// combination is exit 1 before any simulation work starts. The
// -fastpath rows are not flag arithmetic: the command builds the shell
// and refuses when the shell says the interpreter would serve.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"positional args", []string{"firewall"}},
		{"zero packets", []string{"-packets", "0"}},
		{"negative rate", []string{"-rate", "-1"}},
		{"batch single queue", []string{"-batch", "32"}},
		{"update without trigger", []string{"-update-prog", "toy"}},
		{"trigger without update", []string{"-update-after", "10"}},

		{"fastpath faults", []string{"-fastpath", "-faults", "0.1"}},
		{"fastpath protect", []string{"-fastpath", "-protect", "ecc"}},
		{"fastpath watchdog", []string{"-fastpath", "-watchdog", "100"}},
		{"fastpath stall", []string{"-fastpath", "-policy", "stall"}},
		{"fastpath trace", []string{"-fastpath", "-trace", filepath.Join(t.TempDir(), "t.jsonl")}},
		{"fastpath metrics", []string{"-fastpath", "-metrics"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if code, _ := sim(t, tc.args...); code != 1 {
				t.Errorf("args %v: exit %d, want usage error (1)", tc.args, code)
			}
		})
	}
}

// TestFastPathServes runs a short load in each engine mode and checks
// the banner reports which engine actually served the traffic.
func TestFastPathServes(t *testing.T) {
	code, out := sim(t, "-app", "toy", "-packets", "2000", "-fastpath")
	if code != 0 {
		t.Fatalf("fastpath run: exit %d\n%s", code, out)
	}
	if !strings.Contains(out, "(compiled fast path)") {
		t.Errorf("fastpath run did not report the compiled engine:\n%s", out)
	}
	if !strings.Contains(out, "received:  2000 of 2000") {
		t.Errorf("fastpath run lost packets:\n%s", out)
	}

	code, out = sim(t, "-app", "toy", "-packets", "2000")
	if code != 0 {
		t.Fatalf("interpreter run: exit %d\n%s", code, out)
	}
	if !strings.Contains(out, "(cycle-accurate interpreter), fast path not requested") {
		t.Errorf("default run did not report the interpreter and why:\n%s", out)
	}
}

// TestFastPathUpdate: a live update keeps the compiled engine serving
// on one queue and on four, and the run reports the update's cutover.
func TestFastPathUpdate(t *testing.T) {
	for _, queues := range []string{"1", "4"} {
		code, out := sim(t, "-app", "toy", "-packets", "2000", "-queues", queues, "-fastpath",
			"-update-prog", "toy", "-update-after", "1000")
		if code != 0 {
			t.Fatalf("%s queue(s): exit %d\n%s", queues, code, out)
		}
		for _, want := range []string{"(compiled fast path)", "received:  2000 of 2000", "stage done", "-cycle cutover"} {
			if !strings.Contains(out, want) {
				t.Errorf("%s queue(s): output lacks %q:\n%s", queues, want, out)
			}
		}
	}
}

// TestFastPathMultiQueue covers the RSS leg of the -fastpath switch.
func TestFastPathMultiQueue(t *testing.T) {
	code, out := sim(t, "-app", "toy", "-packets", "4000", "-queues", "2", "-fastpath")
	if code != 0 {
		t.Fatalf("multi-queue fastpath run: exit %d\n%s", code, out)
	}
	if !strings.Contains(out, "(compiled fast path)") {
		t.Errorf("multi-queue run did not report the compiled engine:\n%s", out)
	}
	if !strings.Contains(out, "2 replicas") {
		t.Errorf("multi-queue run did not report its replicas:\n%s", out)
	}
	// Steer tracing lives in the dispatcher, not the replicas: it does
	// not cost a multi-queue run the compiled engine.
	code, out = sim(t, "-app", "toy", "-packets", "400", "-queues", "2", "-fastpath",
		"-trace", filepath.Join(t.TempDir(), "steer.jsonl"))
	if code != 0 || !strings.Contains(out, "(compiled fast path)") {
		t.Errorf("traced multi-queue fastpath run: exit %d\n%s", code, out)
	}
}
