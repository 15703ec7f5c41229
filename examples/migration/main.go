// Migration demonstrates replica creation and the coherence layer over
// the real runtime: a ViewMailServer replica is stood up next to a
// remote client, absorbs writes under a count-bound weak-consistency
// policy, and the paper's staleness/latency trade-off is visible in the
// pending-update counters; a replica registered later holds what the
// primary holds, and a snapshot moved to a less-trusted node keeps only
// what that node may hold.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"partsvc/internal/coherence"
	"partsvc/internal/mail"
	"partsvc/internal/seccrypto"
	"partsvc/internal/transport"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run replicates a mail server into views and prints, after each step,
// what the view and the primary hold to w.
func run(w io.Writer) error {
	keys := seccrypto.NewKeyRing()
	clock := transport.NewRealClock()
	primary := mail.NewServer(keys, clock)
	for _, u := range []string{"Alice", "Bob"} {
		if err := primary.CreateAccount(u); err != nil {
			return err
		}
	}

	// Replicate the server's state into a branch-office view with a
	// count-bound policy: at most 5 unpropagated updates.
	branch, err := mail.NewView(mail.ViewConfig{
		ID:       "vms-branch",
		Trust:    4,
		Keys:     keys.SubRing(4),
		Upstream: primary,
		Policy:   coherence.CountBound{Bound: 5},
		Clock:    clock,
	}, 1<<32)
	if err != nil {
		return err
	}
	primary.Directory().Register(mail.ViewName, branch.Replica())

	alice := mail.NewClient("Alice", keys, branch)
	fmt.Fprintln(w, "sending 7 messages through the branch view (bound = 5):")
	for i := 1; i <= 7; i++ {
		sens := 2
		if i%2 == 0 {
			sens = 4 // mixed sensitivities; high ones shed on migration below
		}
		if _, err := alice.Send("Bob", fmt.Sprintf("msg %d", i), []byte("body"), sens); err != nil {
			return err
		}
		fmt.Fprintf(w, "  after send %d: view pending=%d, primary inbox=%d\n",
			i, branch.Pending(), primary.Store().InboxCount("Bob"))
	}
	fmt.Fprintln(w, "the bound forced one flush at send 5; sends 6-7 are still pending")

	// Explicit flush propagates the rest.
	if err := branch.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "after explicit flush: primary inbox=%d\n", primary.Store().InboxCount("Bob"))

	// A replica created later starts with what the primary holds —
	// component replication with state migration: the new instance's
	// data view is whole before it serves its first read.
	late, err := mail.NewView(mail.ViewConfig{
		ID:       "vms-late",
		Trust:    4,
		Keys:     keys.SubRing(4),
		Upstream: primary,
		Policy:   coherence.WriteThrough{},
		Clock:    clock,
	}, 1<<33)
	if err != nil {
		return err
	}
	primary.Directory().Register(mail.ViewName, late.Replica())
	fmt.Fprintf(w, "late replica after catch-up: inbox=%d (matches primary)\n",
		late.Store().InboxCount("Bob"))

	// Reads at the late replica are local and correctly re-encrypted.
	bob := mail.NewClient("Bob", keys, late)
	msgs, err := bob.Receive()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "bob receives %d messages from the late replica; first body: %q\n",
		len(msgs), msgs[0].Body)

	// Component migration via custom serialization: the branch view's
	// full state snapshots into the wire format and seeds a replacement
	// instance — e.g. when the planner moves the view to another node.
	// Migrating to a less-trusted node sheds over-ceiling messages.
	snap, err := branch.Store().Snapshot()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nsnapshot of the branch view: %d bytes\n", len(snap))
	moved, err := mail.NewView(mail.ViewConfig{
		ID:       "vms-moved",
		Trust:    2, // destination node is less trusted
		Keys:     keys.SubRing(2),
		Upstream: primary,
		Policy:   coherence.WriteThrough{},
		Clock:    clock,
		Snapshot: snap,
	}, 1<<34)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "migrated to a trust-2 node: inbox=%d of %d (level<=2 carried over; level-4 shed)\n",
		moved.Store().InboxCount("Bob"), branch.Store().InboxCount("Bob"))
	return nil
}
