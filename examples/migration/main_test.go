package main

import (
	"strings"
	"testing"
)

// TestMigrationReplicates runs the example and checks what each replica
// holds, not how it came to hold it: the count bound flushes at send 5
// and not before, a replica registered later holds the primary's 7
// messages, and the snapshot moved to a trust-2 node keeps the 4 of 7
// it may hold.
func TestMigrationReplicates(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"  after send 4: view pending=4, primary inbox=0",
		"  after send 5: view pending=0, primary inbox=5",
		"  after send 7: view pending=2, primary inbox=5",
		"after explicit flush: primary inbox=7",
		"late replica after catch-up: inbox=7 (matches primary)",
		`bob receives 7 messages from the late replica; first body: "body"`,
		"migrated to a trust-2 node: inbox=4 of 7 (level<=2 carried over; level-4 shed)",
	} {
		if !strings.Contains(out.String(), want+"\n") {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
