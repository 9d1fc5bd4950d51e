package main

import (
	"errors"
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// TestHelperMain is not a test: runStretchsim re-executes the test binary
// with "-test.run=^TestHelperMain$ -- <args>", and this runs main() on the
// arguments after "--" in that child process.
func TestHelperMain(t *testing.T) {
	i := slices.Index(os.Args, "--")
	if i < 0 {
		t.Skip("runs only as runStretchsim's child process")
	}
	os.Args = append([]string{"stretchsim"}, os.Args[i+1:]...)
	main()
	os.Exit(0)
}

// runStretchsim runs the command with args in a child process and returns
// its exit code and standard error.
func runStretchsim(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^TestHelperMain$", "--"}, args...)...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stderr.String()
	}
	t.Fatal(err)
	return 0, ""
}

// TestStrayArgumentRejected: the flag parser stops at the first non-flag
// and drops every flag after it, so each entry point must refuse leftover
// arguments instead of running with defaults.
func TestStrayArgumentRejected(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"fleet", []string{"-fleet", "mixed", "-policy", "bogus"}, `stretchsim: unexpected argument "mixed"`},
		{"experiment", []string{"-experiment", "fig1", "full"}, `stretchsim: unexpected argument "full"`},
		{"synth", []string{"synth", "-spec", "mixed", "week", "-o", "x.csv"}, `stretchsim: synth: unexpected argument "week"`},
		{"plan", []string{"plan", "-trace", "x.csv", "2", "-budget", "3"}, `stretchsim: plan: unexpected argument "2"`},
		{"search", []string{"search", "-traces", "failover", "stray"}, `stretchsim: search: unexpected argument "stray"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, stderr := runStretchsim(t, tc.args...)
			if code == 0 {
				t.Fatalf("exit 0, want non-zero; stderr:\n%s", stderr)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Fatalf("stderr %q does not contain %q", stderr, tc.want)
			}
		})
	}
}
