package main

import (
	"fmt"
	"math/rand"
	"time"

	"partsvc/internal/coherence"
	"partsvc/internal/mail"
	"partsvc/internal/netmon"
	"partsvc/internal/seccrypto"
	"partsvc/internal/sim"
	"partsvc/internal/solver"
	"partsvc/internal/topology"
	"partsvc/internal/transport"
	"partsvc/internal/wire"
)

// Micro-timings: each layer's exported entry point called directly, in
// the traced pass only. Every figure is the median of several batches
// (the batch mean, where one call is too short to time on its own).

// perCall times batches of n calls to fn and returns the median batch
// mean in nanoseconds.
func perCall(batches, n int, fn func()) float64 {
	fn() // warm
	means := make([]float64, batches)
	for b := range means {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		means[b] = float64(time.Since(t0)) / float64(n)
	}
	return median(means)
}

func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("benchmark: micro-timing set-up: %v", err))
	}
}

// microTimings measures every layer that has a direct entry point.
func microTimings(seed int64) (map[string]float64, error) {
	m := map[string]float64{}
	rng := newRand(seed, "micro")
	randBytes := func(n int) []byte { b := make([]byte, n); rng.Read(b); return b }

	// wire: one message carrying the body, encoded and decoded.
	for _, sz := range []struct {
		name string
		n    int
	}{{"10k", 10 << 10}, {"256", 256}} {
		msg := &wire.Message{Kind: wire.KindRequest, ID: 7, Method: "send", Body: randBytes(sz.n)}
		var enc []byte
		m["wire.marshal_"+sz.name+"_ns"] = perCall(9, 2000, func() {
			var err error
			enc, err = msg.Marshal()
			must(err)
		})
		m["wire.unmarshal_"+sz.name+"_ns"] = perCall(9, 2000, func() {
			_, err := wire.UnmarshalMessage(enc)
			must(err)
		})
	}

	// transport: a closed-loop echo on each substrate, one caller.
	echo := transport.HandlerFunc(func(req *wire.Message) *wire.Message {
		return &wire.Message{Kind: wire.KindResponse, ID: req.ID, Body: req.Body}
	})
	for _, tc := range []struct {
		name string
		tr   transport.Transport
		n    int
	}{
		{"transport.tcp.echo_256_us", transport.NewTCP(), 256},
		{"transport.tcp.echo_10k_us", transport.NewTCP(), 10 << 10},
		{"transport.ring.echo_256_us", &transport.TCP{Ring: true}, 256},
		{"transport.inproc.echo_256_us", transport.NewInProc(), 256},
	} {
		ln, err := tc.tr.Serve("", echo)
		if err != nil {
			return nil, err
		}
		ep, err := tc.tr.Dial(ln.Addr())
		if err != nil {
			ln.Close()
			return nil, err
		}
		req := &wire.Message{Kind: wire.KindRequest, ID: 1, Method: "echo", Body: randBytes(tc.n)}
		m[tc.name] = perCall(9, 1000, func() {
			_, err := ep.Call(req)
			must(err)
		}) / 1e3
		ep.Close()
		ln.Close()
	}

	// seccrypto: the per-message work of a send (seal), a client read
	// (open) and a server-side receive (transform = open + seal).
	keys := seccrypto.NewKeyRing()
	must(keys.GenerateUserKeys("a", seccrypto.MaxLevel))
	must(keys.GenerateUserKeys("b", seccrypto.MaxLevel))
	body10k, body1k := randBytes(10<<10), randBytes(1<<10)
	env10k, err := keys.Seal("a", 5, body10k)
	if err != nil {
		return nil, err
	}
	env1k, err := keys.Seal("a", 2, body1k)
	if err != nil {
		return nil, err
	}
	m["seccrypto.seal_10k_us"] = perCall(9, 2000, func() { _, err := keys.Seal("a", 5, body10k); must(err) }) / 1e3
	m["seccrypto.open_10k_us"] = perCall(9, 2000, func() { _, err := keys.Open(env10k); must(err) }) / 1e3
	m["seccrypto.seal_1k_us"] = perCall(9, 5000, func() { _, err := keys.Seal("a", 2, body1k); must(err) }) / 1e3
	m["seccrypto.transform_1k_us"] = perCall(9, 5000, func() { _, err := keys.Transform(env1k, "b", 2); must(err) }) / 1e3

	// coherence: logging one local write, and fanning one update out to
	// one sibling replica.
	writer := coherence.NewReplica("w", coherence.None{}, nil)
	data := randBytes(1 << 10)
	m["coherence.write_ns"] = perCall(9, 20000, func() {
		writer.Write("send", "k", data, 0)
		if writer.Pending() >= 1024 {
			writer.TakePending(0)
		}
	})
	dir := coherence.NewDirectory()
	dir.Register("v", coherence.NewReplica("sink", coherence.None{}, func(coherence.Update) {}))
	seq := uint64(0)
	m["coherence.publish_ns"] = perCall(9, 20000, func() {
		seq++
		dir.Publish("v", []coherence.Update{{Origin: "w", Seq: seq, Op: "send", Key: "k", Data: data}})
	})

	// mail: filing one message into a folder that already holds 1 000
	// (Append scans the folder for a duplicate ID).
	const depth, appends = 1000, 200
	means := make([]float64, 9)
	for b := range means {
		st := mail.NewStore(0)
		for i := 1; i <= depth; i++ {
			must(st.Append("u", mail.FolderInbox, &mail.Message{ID: uint64(i), From: "a", To: "u", Body: data, Sensitivity: 2}))
		}
		t0 := time.Now()
		for i := depth + 1; i <= depth+appends; i++ {
			must(st.Append("u", mail.FolderInbox, &mail.Message{ID: uint64(i), From: "a", To: "u", Body: data, Sensitivity: 2}))
		}
		means[b] = float64(time.Since(t0)) / appends
	}
	m["mail.store_append_ns.d1000"] = median(means)

	// netmon / netmodel: reporting a link change, the first route lookup
	// after it (the cache rebuilds), and a warm lookup.
	net := topology.CaseStudy()
	mon := netmon.New(net)
	var reportNS, rebuildNS []float64
	for i := 0; i < 400; i++ {
		lat := 200.0
		if i%2 == 0 {
			lat = 1000
		}
		t0 := time.Now()
		err := mon.ReportLink(topology.NYServer, topology.SDGateway, lat, -1, nil)
		t1 := time.Now()
		if err != nil {
			return nil, err
		}
		if _, ok := net.Routes().Path(topology.NYClient, topology.SeaClient); !ok {
			return nil, fmt.Errorf("no route ny-2 -> sea-2")
		}
		reportNS = append(reportNS, float64(t1.Sub(t0)))
		rebuildNS = append(rebuildNS, float64(time.Since(t1)))
	}
	m["netmon.report_link_us"] = median(reportNS) / 1e3
	m["netmodel.route_rebuild_us"] = median(rebuildNS) / 1e3
	rc := net.Routes()
	ids := rc.NodeIDs()
	i := 0
	m["netmodel.route_lookup_ns"] = perCall(9, 200000, func() {
		i++
		rc.Path(ids[i%len(ids)], ids[(i/len(ids))%len(ids)])
	})

	// solver: a benchmark-owned 64-variable tree model, solved from
	// scratch and repaired after one root-to-leaf path is dirtied. It
	// moves no end-to-end metric until the solver is the default planner.
	tm := newTreeModel(64, 8, seed)
	var s solver.Solver
	sol, _, ok := s.Solve(tm)
	if !ok {
		return nil, fmt.Errorf("synthetic solver model is infeasible")
	}
	dirty := make([]bool, tm.Vars())
	for v := tm.Vars() - 1; v >= 0; v = tm.Parent(v) {
		dirty[v] = true
	}
	m["solver.solve_us.tree64"] = perCall(9, 20, func() {
		if _, _, ok := s.Solve(tm); !ok {
			panic("benchmark: synthetic solve failed")
		}
	}) / 1e3
	m["solver.repair_us.tree64"] = perCall(9, 200, func() {
		if _, _, ok := s.Repair(tm, sol.Assign, dirty); !ok {
			panic("benchmark: synthetic repair failed")
		}
	}) / 1e3

	// sim: scheduling and firing one timer: 100 000 entities re-arming a
	// 1 ms timer ten times each, a million events in all (the shape of
	// the repository's own BenchmarkSimCore).
	const entities, hops = 100_000, 10
	simMeans := make([]float64, 3)
	for b := range simMeans {
		env := sim.NewEnv()
		fired := 0
		t0 := time.Now()
		for i := 0; i < entities; i++ {
			left := hops
			var tick func()
			tick = func() {
				fired++
				if left--; left > 0 {
					env.After(1, tick)
				}
			}
			env.After(1, tick)
		}
		env.RunUntil(hops + 1)
		simMeans[b] = float64(time.Since(t0)) / (entities * hops)
		env.Stop()
		if fired != entities*hops {
			return nil, fmt.Errorf("sim fired %d of %d timers", fired, entities*hops)
		}
	}
	m["sim.timer_ns"] = median(simMeans)
	return m, nil
}

// planTimings measures the default planner on the three Figure-6
// requests and what deployment adds on top of planning. Every timing is
// the first call on a fresh world, so Access and PlanOnly both plan
// cold; Seattle is planned against the San Diego deployment Access just
// made, as in the case study.
func planTimings() (map[string]float64, error) {
	const samples = 5
	fresh := func(fn func(w *world) error) (float64, error) {
		w, err := newWorld([]string{"Alice", "Bob", "Carol"}, nil, nil)
		if err != nil {
			return 0, err
		}
		defer w.close()
		t0 := time.Now()
		err = fn(w)
		return float64(time.Since(t0)) / 1e6, err
	}
	var ny, sd, sea, access, installs []float64
	for i := 0; i < samples; i++ {
		t, err := fresh(func(w *world) error { _, err := w.gs.PlanOnly(nyRequest()); return err })
		if err != nil {
			return nil, err
		}
		ny = append(ny, t)
		if t, err = fresh(func(w *world) error { _, err := w.gs.PlanOnly(sdRequest()); return err }); err != nil {
			return nil, err
		}
		sd = append(sd, t)
		var seattle float64
		_, err = fresh(func(w *world) error {
			before := w.engine.InstanceCount()
			t0 := time.Now()
			if _, _, err := w.access(sdRequest(), figure6SD); err != nil {
				return err
			}
			access = append(access, float64(time.Since(t0))/1e6)
			installs = append(installs, float64(w.engine.InstanceCount()-before))
			t0 = time.Now()
			_, err := w.gs.PlanOnly(seattleRequest())
			seattle = float64(time.Since(t0)) / 1e6
			return err
		})
		if err != nil {
			return nil, err
		}
		sea = append(sea, seattle)
	}
	return map[string]float64{
		"planner.plan_ms.ny":        median(ny),
		"planner.plan_ms.sd":        median(sd),
		"planner.plan_ms.seattle":   median(sea),
		"smock.deploy_ms":           median(access) - median(sd),
		"smock.installs_per_access": median(installs),
	}, nil
}

// treeModel is the benchmark's own solver.Model: a complete binary tree
// of n variables with d values each, a parity constraint along every
// edge and seeded additive edge costs whose bounds are exact.
type treeModel struct {
	n, d int
	cost [][]float64 // [v][pv*d+cv]; the root uses pv = 0
}

func newTreeModel(n, d int, seed int64) *treeModel {
	rng := rand.New(rand.NewSource(seed))
	t := &treeModel{n: n, d: d, cost: make([][]float64, n)}
	for v := range t.cost {
		t.cost[v] = make([]float64, d*d)
		for i := range t.cost[v] {
			t.cost[v][i] = float64(1 + rng.Intn(1000))
		}
	}
	return t
}

func (t *treeModel) Vars() int            { return t.n }
func (t *treeModel) DomainSize(int) int   { return t.d }
func (t *treeModel) Bounded() bool        { return true }
func (t *treeModel) Better(a, b any) bool { return a.(float64) < b.(float64) }

func (t *treeModel) Parent(v int) int {
	if v == 0 {
		return -1
	}
	return (v - 1) / 2
}

func (t *treeModel) Compatible(v, pv, cv int) bool { return (pv+cv+v)%3 != 0 }

func (t *treeModel) EdgeBound(v, pv, cv int) float64 {
	if pv < 0 {
		pv = 0
	}
	return t.cost[v][pv*t.d+cv]
}

func (t *treeModel) Evaluate(assign []int) (any, float64, bool) {
	total := 0.0
	for v, cv := range assign {
		pv := -1
		if p := t.Parent(v); p >= 0 {
			pv = assign[p]
		}
		total += t.EdgeBound(v, pv, cv)
	}
	return total, total, true
}
