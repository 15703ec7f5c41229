package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTableAlignment(t *testing.T) {
	tb := NewTable("scenario", "clients", "avg_ms")
	tb.AddRow("DS500", 5, 52.25)
	tb.AddRow("SS", 1, 205.0)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "scenario") || !strings.Contains(lines[0], "avg_ms") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "---") {
		t.Errorf("separator = %q", lines[1])
	}
	if !strings.Contains(lines[2], "52.25") {
		t.Errorf("row = %q", lines[2])
	}
	// Columns align: the "avg_ms" column starts at the same offset.
	off0 := strings.Index(lines[0], "avg_ms")
	off2 := strings.Index(lines[2], "52.25")
	if off0 != off2 {
		t.Errorf("column misaligned: %d vs %d\n%s", off0, off2, out)
	}
}

// TestCounterConcurrent: mixed concurrent adds (increments, larger
// steps, decrements) from many goroutines land exactly, and the zero
// value reads zero.
func TestCounterConcurrent(t *testing.T) {
	var c Counter
	if c.Load() != 0 {
		t.Fatal("zero value not zero")
	}
	const goroutines, perG = 16, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				switch i % 3 {
				case 0:
					c.Inc()
				case 1:
					c.Add(3)
				case 2:
					c.Add(-2)
				}
			}
		}()
	}
	wg.Wait()
	// Mirror the loop exactly: the i%3 buckets are not equal thirds.
	var perGoroutine int64
	for i := 0; i < perG; i++ {
		perGoroutine += []int64{1, 3, -2}[i%3]
	}
	if got, want := c.Load(), goroutines*perGoroutine; got != want {
		t.Fatalf("Load() = %d, want %d", got, want)
	}
}

// BenchmarkAtomicCounterParallel measures the contended add path every
// data-plane counter takes (run with -cpu to vary the contention).
func BenchmarkAtomicCounterParallel(b *testing.B) {
	var c Counter
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
	if c.Load() != int64(b.N) {
		b.Fatal("lost updates")
	}
}

func TestPerSec(t *testing.T) {
	if got := PerSec(1000, time.Second); got != 1000 {
		t.Errorf("PerSec(1000, 1s) = %v", got)
	}
	if got := PerSec(500, 250*time.Millisecond); got != 2000 {
		t.Errorf("PerSec(500, 250ms) = %v", got)
	}
	if got := PerSec(42, 0); got != 0 {
		t.Errorf("PerSec with zero elapsed = %v, want 0", got)
	}
	if got := PerSec(42, -time.Second); got != 0 {
		t.Errorf("PerSec with negative elapsed = %v, want 0", got)
	}
}
