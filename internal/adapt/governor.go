package adapt

// governor is the loop's global cutover brake. Without it, five
// thousand sessions reacting to one backbone event would re-deploy the
// world in a single instant — a self-inflicted thundering herd — and a
// session sitting near a latency tie would rewire on every minor
// oscillation. The governor applies two policies at commit time:
//
//   - a token bucket paces cutovers fleet-wide: each commit spends one
//     token, and when the bucket is dry the commit is deferred to the
//     virtual instant its token accrues (reservations queue, so a wave's
//     commits spread out at the configured rate instead of stampeding).
//     A session whose deferred commit a later wave decides again keeps
//     its reserved instant: it does not queue behind itself;
//   - per-session hysteresis suppresses rewires that arrive inside the
//     configured window after the session's previous cutover. The loop
//     asks only for a session whose deployment still holds (runWave's
//     holds check), so a forced cutover — the session's instances are
//     stale, its deployment is broken or no longer holds, a node died
//     under it or under its anchor's chain — is never held back (but
//     still pays a token: mass failure is exactly when pacing matters
//     most).
//
// The governor runs on the loop's clock and is only touched from the
// sequential commit phase, so it needs no locking and its decisions
// are deterministic. With a zero rate and window (the defaults) it
// never intervenes.
type governor struct {
	ratePerSec   float64 // tokens per second; <= 0 disables pacing
	burst        float64
	hysteresisMS float64

	tokens float64
	lastMS float64
}

func newGovernor(ratePerSec float64, burst int, hysteresisMS float64) *governor {
	if burst <= 0 {
		burst = 1
	}
	return &governor{
		ratePerSec:   ratePerSec,
		burst:        float64(burst),
		hysteresisMS: hysteresisMS,
		tokens:       float64(burst),
	}
}

// suppressed reports whether a rewire at nowMS falls inside the
// session's anti-flap window. The caller holds back only a session
// whose deployment still holds, which makes the rewire an optimization.
func (g *governor) suppressed(nowMS, lastCutoverMS float64) bool {
	if g.hysteresisMS <= 0 {
		return false
	}
	return nowMS-lastCutoverMS < g.hysteresisMS
}

// reserveAt spends one token and returns the earliest virtual time the
// cutover may commit: nowMS when a token is available, otherwise the
// future instant the bucket refills to one. Successive calls queue
// their reservations.
func (g *governor) reserveAt(nowMS float64) float64 {
	if g.ratePerSec <= 0 {
		return nowMS
	}
	if nowMS > g.lastMS {
		g.tokens += (nowMS - g.lastMS) / 1000 * g.ratePerSec
		if g.tokens > g.burst {
			g.tokens = g.burst
		}
		g.lastMS = nowMS
	}
	if g.tokens >= 1 {
		g.tokens--
		return nowMS
	}
	// Reserve the next token as it accrues: advance the refill horizon
	// to the instant the deficit closes and consume the token there.
	waitMS := (1 - g.tokens) / g.ratePerSec * 1000
	g.tokens = 0
	g.lastMS += waitMS
	return g.lastMS
}
