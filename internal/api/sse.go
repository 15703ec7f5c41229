package api

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// handleEvents streams the bus over Server-Sent Events. Each event is
// one `id:`/`event:`/`data:` frame whose data is the Event as JSON and
// whose id is the bus sequence number; a reconnecting client sends
// Last-Event-ID and missed events still in the replay ring are
// re-delivered before the live stream resumes. Filters: ?session=name
// scopes to one session (plus session-less events), ?kind=a,b to an
// event-kind set.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	s.streamEvents(w, r, heartbeatPeriod)
}

// streamEvents is handleEvents with a keepalive comment every heartbeat.
func (s *Server) streamEvents(w http.ResponseWriter, r *http.Request, heartbeat time.Duration) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	filter := Filter{Session: r.URL.Query().Get("session")}
	if kinds := r.URL.Query().Get("kind"); kinds != "" {
		filter.Kinds = map[string]bool{}
		for _, k := range strings.Split(kinds, ",") {
			if k = strings.TrimSpace(k); k != "" {
				filter.Kinds[k] = true
			}
		}
	}
	var after uint64
	if id := r.Header.Get("Last-Event-ID"); id != "" {
		if v, err := strconv.ParseUint(id, 10, 64); err == nil {
			after = v
		}
	} else if id := r.URL.Query().Get("after"); id != "" {
		if v, err := strconv.ParseUint(id, 10, 64); err == nil {
			after = v
		}
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, "retry: 1000\n\n")

	// Subscribe before replaying so no event falls between the ring
	// read and the live stream; the replay may then overlap the live
	// channel's head, so frames below lastSent are skipped.
	sub := s.bus.Subscribe(filter, s.cfg.SubscriberBuffer)
	defer sub.Cancel()
	var lastSent uint64
	for _, e := range s.bus.ReplayAfter(after, filter) {
		writeSSE(w, e)
		lastSent = e.Seq
	}
	fl.Flush()

	ticker := time.NewTicker(heartbeat)
	defer ticker.Stop()
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			// Comment frames keep proxies from idling the connection out
			// and let the handler notice a dead client between events.
			if _, err := fmt.Fprint(w, ": hb\n\n"); err != nil {
				return
			}
			fl.Flush()
		case e, ok := <-sub.C:
			if !ok {
				// Bus closed: tell the client this is a shutdown, not a
				// hiccup to retry into.
				fmt.Fprint(w, "event: bye\ndata: {}\n\n")
				fl.Flush()
				return
			}
			if e.Seq <= lastSent {
				continue
			}
			writeSSE(w, e)
			lastSent = e.Seq
			// Drain whatever else is ready before flushing once.
		drain:
			for {
				select {
				case e, ok := <-sub.C:
					if !ok {
						fmt.Fprint(w, "event: bye\ndata: {}\n\n")
						fl.Flush()
						return
					}
					if e.Seq > lastSent {
						writeSSE(w, e)
						lastSent = e.Seq
					}
				default:
					break drain
				}
			}
			fl.Flush()
		}
	}
}

// writeSSE renders one event frame.
func writeSSE(w http.ResponseWriter, e Event) {
	data, err := json.Marshal(e)
	if err != nil {
		return // Event is plain scalars; cannot happen
	}
	fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.Seq, e.Kind, data)
}
