package bench

import (
	"partsvc/internal/metrics"
)

// This file is the callback fast-path engine for the Figure 7 workload:
// the same client/flusher logic as runClient/flush in fig7.go,
// expressed as continuation chains over sim's *Fn primitives, so a
// simulated event costs one inline callback instead of two channel
// handoffs and a goroutine context switch — and a 10k-client scenario
// needs zero client goroutines.
//
// The translation rule that keeps both engines bit-identical: every
// yield point of the process engine (Sleep, SleepUntil, Transfer, a
// blocking Lock/Acquire) becomes exactly one scheduled event here, and
// everything between two yield points runs synchronously inside one
// callback, in the same order. Both engines then consume identical
// (time, seq) event sequences, so every virtual timestamp — and hence
// every Row — matches to the bit (asserted by the equivalence tests).

// startClient launches one client on the callback engine. It mirrors
// runClient: SendsPerClient sends with a receive sweep after every
// ReceiveEvery sends, at the maximum rate the deployment permits.
func (w *scenarioWorld) startClient(rec *metrics.Recorder) {
	env := w.env
	cfg := w.cfg
	sends := 0
	receives := 0
	var sendStart float64

	// sleep mirrors Proc.Sleep: always one event, even for d == 0.
	sleep := func(d float64, fn func()) {
		if d < 0 {
			d = 0
		}
		env.After(d, fn)
	}

	var beginSend func()
	next := func() {
		if sends >= cfg.SendsPerClient {
			w.active--
			return
		}
		beginSend()
	}
	afterReceive := next
	afterSend := func() {
		rec.Add(env.Now() - sendStart)
		sends++
		if cfg.ReceiveEvery > 0 && sends%cfg.ReceiveEvery == 0 {
			receives++
			w.receiveCB(receives, sleep, afterReceive)
		} else {
			next()
		}
	}
	beginSend = func() {
		sendStart = env.Now()
		sleep(cfg.ClientServiceMS, func() {
			afterOverhead := func() { w.sendCB(sleep, afterSend) }
			if w.sc.Dynamic {
				sleep(cfg.ProxyOverheadMS, afterOverhead)
			} else {
				afterOverhead()
			}
		})
	}
	// Mirror Go(): one start event at the current time per client.
	env.At(env.Now(), beginSend)
}

// sendCB models one message send (the body of send after the client
// service + proxy sleeps, which startClient already issued).
func (w *scenarioWorld) sendCB(sleep func(float64, func()), done func()) {
	cfg := w.cfg
	switch {
	case w.sc.Cached:
		// MailClient -> local ViewMailServer; the send is absorbed
		// locally, logging coherence records; the policy may force a
		// synchronous flush across the slow link while the view is
		// locked.
		w.view.LockFn(func() {
			sleep(cfg.ViewServiceMS, func() {
				flush := false
				for r := 0; r < cfg.RecordsPerSend; r++ {
					if _, due := w.replica.Write("send", "user", nil, w.env.Now()); due {
						flush = true
					}
				}
				if !flush {
					w.view.Unlock()
					done()
					return
				}
				batch := w.replica.TakePending(w.env.Now())
				// Encryptor/Decryptor tunnel on the flush path.
				sleep(2*cfg.CryptoServiceMS, func() {
					w.slowUp.TransferFn(len(batch)*cfg.RecordBytes, func(float64) {
						w.server.AcquireFn(1, func() {
							sleep(cfg.ServerServiceMS, func() {
								w.server.Release(1)
								// Acknowledgement.
								w.slowDown.TransferFn(cfg.ReplyBytes, func(float64) {
									w.view.Unlock()
									done()
								})
							})
						})
					})
				})
			})
		})
	case w.sc.Slow:
		// SS: the client talks straight to the distant MailServer,
		// "unaware of the slow link", through the encryptor tunnel.
		sleep(cfg.CryptoServiceMS, func() {
			w.slowUp.TransferFn(cfg.MessageBytes, func(float64) {
				sleep(cfg.CryptoServiceMS, func() {
					w.server.AcquireFn(1, func() {
						sleep(cfg.ServerServiceMS, func() {
							w.server.Release(1)
							w.slowDown.TransferFn(cfg.ReplyBytes, func(float64) { done() })
						})
					})
				})
			})
		})
	default:
		// DF/SF: LAN client straight to the MailServer.
		w.lanUp.TransferFn(cfg.MessageBytes, func(float64) {
			w.server.AcquireFn(1, func() {
				sleep(cfg.ServerServiceMS, func() {
					w.server.Release(1)
					w.lanDown.TransferFn(cfg.ReplyBytes, func(float64) { done() })
				})
			})
		})
	}
}

// receiveCB models one receive sweep, mirroring receive.
func (w *scenarioWorld) receiveCB(idx int, sleep func(float64, func()), done func()) {
	cfg := w.cfg
	body := func() {
		switch {
		case w.sc.Cached:
			w.view.LockFn(func() {
				sleep(cfg.ViewServiceMS, func() {
					w.view.Unlock()
					if cfg.MissEvery > 0 && idx%cfg.MissEvery == 0 {
						// Cache miss (the view's RRF): fetch from the primary.
						sleep(2*cfg.CryptoServiceMS, func() {
							w.slowUp.TransferFn(cfg.ReplyBytes, func(float64) {
								w.server.AcquireFn(1, func() {
									sleep(cfg.ServerServiceMS, func() {
										w.server.Release(1)
										w.slowDown.TransferFn(cfg.MessageBytes, func(float64) { done() })
									})
								})
							})
						})
					} else {
						done()
					}
				})
			})
		case w.sc.Slow:
			sleep(cfg.CryptoServiceMS, func() {
				w.slowUp.TransferFn(cfg.ReplyBytes, func(float64) {
					w.server.AcquireFn(1, func() {
						sleep(cfg.ServerServiceMS, func() {
							w.server.Release(1)
							w.slowDown.TransferFn(cfg.MessageBytes, func(float64) {
								sleep(cfg.CryptoServiceMS, func() { done() })
							})
						})
					})
				})
			})
		default:
			w.lanUp.TransferFn(cfg.ReplyBytes, func(float64) {
				w.server.AcquireFn(1, func() {
					sleep(cfg.ServerServiceMS, func() {
						w.server.Release(1)
						w.lanDown.TransferFn(cfg.MessageBytes, func(float64) { done() })
					})
				})
			})
		}
	}
	sleep(cfg.ClientServiceMS, func() {
		if w.sc.Dynamic {
			sleep(cfg.ProxyOverheadMS, body)
		} else {
			body()
		}
	})
}

// startFlusher launches the background flusher for time-driven
// policies on the callback engine, mirroring the flusher process in
// RunScenario.
func (w *scenarioWorld) startFlusher() {
	env := w.env
	var loop func()
	afterFlush := func() {
		if w.active == 0 {
			return
		}
		loop()
	}
	loop = func() {
		deadline, _ := w.replica.NextDeadline()
		if deadline > env.Now() {
			env.At(deadline, func() { w.flushCB(afterFlush) })
		} else {
			w.flushCB(afterFlush)
		}
	}
	env.At(env.Now(), loop)
}

// flushCB propagates the replica's pending updates across the slow link
// while holding the view lock, mirroring flush.
func (w *scenarioWorld) flushCB(done func()) {
	cfg := w.cfg
	w.view.LockFn(func() {
		batch := w.replica.TakePending(w.env.Now())
		if len(batch) == 0 {
			w.view.Unlock()
			done()
			return
		}
		w.env.After(2*cfg.CryptoServiceMS, func() {
			w.slowUp.TransferFn(len(batch)*cfg.RecordBytes, func(float64) {
				w.server.AcquireFn(1, func() {
					w.env.After(cfg.ServerServiceMS, func() {
						w.server.Release(1)
						w.slowDown.TransferFn(cfg.ReplyBytes, func(float64) {
							w.view.Unlock()
							done()
						})
					})
				})
			})
		})
	})
}
