package fabric

import (
	"context"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"dmafault/internal/faultdclient"
)

// TestJoinLoop drives dmafaultd -join's announce loop against a real
// coordinator surface: the first announce registers the worker, an
// announce that fails outright (every inline client retry answered 503) is
// retried on the next tick, and cancelling the context ends the loop
// promptly.
func TestJoinLoop(t *testing.T) {
	c := New(Config{})
	var joins, reject atomic.Int32 // reject: join requests still to answer 503
	h := c.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/fabric/join" {
			joins.Add(1)
			if reject.Add(-1) >= 0 {
				http.Error(w, "coordinator restarting", http.StatusServiceUnavailable)
				return
			}
		}
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()
	log := slog.New(slog.NewTextHandler(io.Discard, nil))

	// startLoop runs JoinLoop for one worker URL; stop cancels it and
	// reports how long the loop took to return.
	startLoop := func(url string) (stop func() time.Duration) {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() { JoinLoop(ctx, ts.URL, url, log); close(done) }()
		return func() time.Duration {
			at := time.Now()
			cancel()
			<-done
			return time.Since(at)
		}
	}
	// waitRegistered reports how long after since the URL showed up in the
	// coordinator's registry.
	waitRegistered := func(t *testing.T, url string, since time.Time, budget time.Duration) time.Duration {
		t.Helper()
		for time.Since(since) < budget {
			for _, w := range c.Registry().Snapshot() {
				if w.URL == url {
					return time.Since(since)
				}
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatalf("%s not registered within %s (%d join requests)", url, budget, joins.Load())
		return 0
	}
	const prompt = 500 * time.Millisecond

	t.Run("first announce registers", func(t *testing.T) {
		joins.Store(0)
		start := time.Now()
		stop := startLoop("http://127.0.0.1:8201")
		waitRegistered(t, "http://127.0.0.1:8201", start, DefaultJoinInterval/2)
		if d := stop(); d > prompt {
			t.Fatalf("loop took %s to return after cancel", d)
		}
	})

	t.Run("failed announce retried on next tick", func(t *testing.T) {
		joins.Store(0)
		// The client retries a 503 inline DefaultRetries times (well under a
		// second of backoff); reject all of those attempts so only the loop's
		// own tick can land the join.
		reject.Store(1 + faultdclient.DefaultRetries)
		start := time.Now()
		stop := startLoop("http://127.0.0.1:8202")
		defer stop()
		reg := waitRegistered(t, "http://127.0.0.1:8202", start, 3*DefaultJoinInterval)
		if reg < DefaultJoinInterval-100*time.Millisecond {
			t.Fatalf("registered after %s, before the %s tick could have retried", reg, DefaultJoinInterval)
		}
		if n := joins.Load(); n < 2+faultdclient.DefaultRetries {
			t.Fatalf("registered after %d join requests, want the rejected announce plus a retry", n)
		}
	})

	t.Run("cancel mid-retry returns promptly", func(t *testing.T) {
		reject.Store(1 << 20) // the coordinator never recovers
		stop := startLoop("http://127.0.0.1:8203")
		time.Sleep(300 * time.Millisecond) // inside the client's inline backoff
		if d := stop(); d > prompt {
			t.Fatalf("loop took %s to return after cancel", d)
		}
	})
}
