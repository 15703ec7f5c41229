package coherence

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// The convergence property behind the mail service's correctness: no
// matter how writes and flushes interleave across replicas, once every
// replica flushes and the directory fans everything out, all replicas
// have applied the same multiset of updates.

// replicaState tracks what one replica applied, keyed (origin, seq).
type replicaState struct {
	r       *Replica
	applied map[string]bool
}

func newReplicaState(id string, policy Policy) *replicaState {
	st := &replicaState{applied: map[string]bool{}}
	st.r = NewReplica(id, policy, func(u Update) {
		st.applied[fmt.Sprintf("%s/%d", u.Origin, u.Seq)] = true
	})
	return st
}

// ownWrites returns the keys of all updates the replica itself wrote.
func ownKeys(id string, count int) []string {
	out := make([]string, count)
	for i := range out {
		out[i] = fmt.Sprintf("%s/%d", id, i+1)
	}
	return out
}

// TestQuickConvergenceUnderRandomInterleavings drives N replicas with a
// random schedule of writes and flushes, then drains everything and
// checks global agreement.
func TestQuickConvergenceUnderRandomInterleavings(t *testing.T) {
	f := func(seed int64, opsSeed uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		dir := NewDirectory()
		const nReplicas = 3
		replicas := make([]*replicaState, nReplicas)
		writes := make([]int, nReplicas)
		for i := range replicas {
			// Mixed policies across replicas.
			var p Policy
			switch i % 3 {
			case 0:
				p = WriteThrough{}
			case 1:
				p = CountBound{Bound: 3}
			default:
				p = None{}
			}
			replicas[i] = newReplicaState(fmt.Sprintf("r%d", i), p)
			dir.Register("view", replicas[i].r)
		}
		ops := int(opsSeed)%60 + 10
		for k := 0; k < ops; k++ {
			i := rng.Intn(nReplicas)
			st := replicas[i]
			if rng.Intn(4) == 0 {
				// Random flush.
				dir.Publish("view", st.r.TakePending(float64(k)))
				continue
			}
			writes[i]++
			if _, flush := st.r.Write("send", "key", nil, float64(k)); flush {
				dir.Publish("view", st.r.TakePending(float64(k)))
			}
		}
		// Drain every replica.
		for _, st := range replicas {
			dir.Publish("view", st.r.TakePending(9999))
		}
		// Agreement: replica i must have applied exactly everyone else's
		// writes (never its own through the directory).
		for i, st := range replicas {
			var want []string
			for j, other := range replicas {
				if i == j {
					continue
				}
				_ = other
				want = append(want, ownKeys(fmt.Sprintf("r%d", j), writes[j])...)
			}
			sort.Strings(want)
			var got []string
			for k := range st.applied {
				got = append(got, k)
			}
			sort.Strings(got)
			if !reflect.DeepEqual(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickLateJoinerConverges: a replica registered after arbitrary
// history catches up to exactly that history.
func TestQuickLateJoinerConverges(t *testing.T) {
	f := func(writes uint8) bool {
		dir := NewDirectory()
		a := NewReplica("a", WriteThrough{}, nil)
		dir.Register("view", a)
		n := int(writes) % 50
		for i := 0; i < n; i++ {
			a.Write("send", "k", nil, float64(i))
			dir.Publish("view", a.TakePending(float64(i)))
		}
		caught := 0
		late := NewReplica("late", WriteThrough{}, func(Update) { caught++ })
		dir.Register("view", late)
		return caught == n && historyLen(dir, "view") == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
