package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"partsvc/internal/api"
)

// streamEvents consumes /v1/events from an operational API server and
// calls onEvent for every decoded frame, reconnecting with
// Last-Event-ID on connection loss until ctx is canceled or the server
// says bye. The psfctl live views are thin clients of this stream —
// the same one curl sees.
func streamEvents(ctx context.Context, base, token, query string, onEvent func(api.Event)) error {
	var lastID uint64
	for {
		err := streamOnce(ctx, base, token, query, &lastID, onEvent)
		switch {
		case ctx.Err() != nil:
			return nil
		case err == errServerBye:
			return nil
		case err != nil:
			// Transient: back off and resume from the last seen id.
			select {
			case <-ctx.Done():
				return nil
			case <-time.After(500 * time.Millisecond):
			}
		}
	}
}

var errServerBye = errors.New("server sent bye")

func streamOnce(ctx context.Context, base, token, query string, lastID *uint64, onEvent func(api.Event)) error {
	url := strings.TrimSuffix(base, "/") + "/v1/events"
	if query != "" {
		url += "?" + strings.TrimPrefix(query, "?")
	}
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		return err
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	if *lastID > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(*lastID, 10))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events stream: %s", resp.Status)
	}

	br := bufio.NewReader(resp.Body)
	var event, data string
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return err
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if event == "bye" {
				return errServerBye
			}
			if data != "" {
				var e api.Event
				if json.Unmarshal([]byte(data), &e) == nil {
					if e.Seq > *lastID {
						*lastID = e.Seq
					}
					onEvent(e)
				}
			}
			event, data = "", ""
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			data = line[len("data: "):]
		}
	}
}

// printEvent renders one control-plane event for the live views:
//
//	[  123ms] adapt  carol     stage: flip
//	[  456ms] adapt  wave 3    wave-close: sessions=8 memo_hits=5 ...
func printEvent(e api.Event) {
	scope := e.Session
	if scope == "" && e.Wave > 0 {
		scope = fmt.Sprintf("wave %d", e.Wave)
	}
	line := fmt.Sprintf("[%7.0fms] %-5s %-10s %s", e.AtMS, e.Source, scope, e.Kind)
	if e.Detail != "" {
		line += ": " + e.Detail
	}
	fmt.Println(line)
}
