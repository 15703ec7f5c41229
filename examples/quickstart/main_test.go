package main

import (
	"strings"
	"testing"
)

// TestQuickstartDeploysAndCalls runs the example: the planner places
// the Greeter on the client's own node and the deployed instance
// answers.
func TestQuickstartDeploysAndCalls(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"deployment: Greeter@client-node",
		"response: hello, world (served on client-node)",
	} {
		if !strings.Contains(out.String(), want+"\n") {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
