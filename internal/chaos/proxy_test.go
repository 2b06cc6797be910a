package chaos

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func newProxyFixture(t *testing.T) (*Proxy, *httptest.Server) {
	t.Helper()
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok")
	}))
	t.Cleanup(backend.Close)
	p, err := NewProxy(backend.URL)
	if err != nil {
		t.Fatalf("NewProxy: %v", err)
	}
	t.Cleanup(func() { p.Close() })
	return p, backend
}

func TestProxyForwardsByDefault(t *testing.T) {
	p, _ := newProxyFixture(t)
	resp, err := http.Get(p.Addr() + "/x")
	if err != nil {
		t.Fatalf("get through proxy: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "ok" {
		t.Fatalf("got %d %q, want 200 ok", resp.StatusCode, body)
	}
	if st := p.Stats(); st.Forwarded != 1 || st.Aborted != 0 || st.Rejected != 0 {
		t.Fatalf("stats = %+v, want 1 forwarded only", st)
	}
}

func TestProxyDownAbortsConnections(t *testing.T) {
	p, _ := newProxyFixture(t)
	p.SetDown(true)
	_, err := http.Get(p.Addr() + "/x")
	if err == nil {
		t.Fatal("down proxy returned a response, want a connection error")
	}
	if st := p.Stats(); st.Aborted != 1 {
		t.Fatalf("stats = %+v, want 1 aborted", st)
	}

	// Flipping back up restores forwarding on the same address.
	p.SetDown(false)
	resp, err := http.Get(p.Addr() + "/x")
	if err != nil {
		t.Fatalf("recovered proxy: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered status = %d, want 200", resp.StatusCode)
	}
}

func TestProxyRejectShedsWithRetryAfter(t *testing.T) {
	p, _ := newProxyFixture(t)
	p.SetReject(true, 2500*time.Millisecond)
	resp, err := http.Get(p.Addr() + "/x")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	// 2.5s rounds up to whole seconds: 3.
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", got)
	}
	if st := p.Stats(); st.Rejected != 1 || st.Forwarded != 0 {
		t.Fatalf("stats = %+v, want 1 rejected", st)
	}
}

func TestProxyLatencyDelaysForwarding(t *testing.T) {
	p, _ := newProxyFixture(t)
	p.SetLatency(60 * time.Millisecond)
	start := time.Now()
	resp, err := http.Get(p.Addr() + "/x")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	resp.Body.Close()
	if elapsed := time.Since(start); elapsed < 60*time.Millisecond {
		t.Fatalf("request returned in %v, want >= 60ms added latency", elapsed)
	}
}

func TestProxyBadTarget(t *testing.T) {
	if _, err := NewProxy("not a url at all\x00"); err == nil {
		t.Fatal("want error for unparseable target")
	}
	if _, err := NewProxy("/just/a/path"); err == nil {
		t.Fatal("want error for target without scheme://host")
	}
}

// TestProxyDownYieldsTransientRetryableError ties the proxy to the retry
// story: the error a client gets from a down backend classifies as
// transient once marked, and Retry drives through it after recovery.
func TestProxyDownYieldsTransientRetryableError(t *testing.T) {
	p, _ := newProxyFixture(t)
	p.SetDown(true)
	calls := 0
	err := Retry(context.Background(), Backoff{Attempts: 5, Base: time.Millisecond, Cap: 5 * time.Millisecond}, "proxy",
		func(attempt int) error {
			calls++
			if attempt == 2 {
				p.SetDown(false)
			}
			resp, err := http.Get(p.Addr() + "/x")
			if err != nil {
				return MarkTransient(err)
			}
			resp.Body.Close()
			return nil
		})
	if err != nil {
		t.Fatalf("retry through recovery: %v (calls=%d)", err, calls)
	}
	if calls < 3 {
		t.Fatalf("calls = %d, want >= 3 (two failures then success)", calls)
	}
	var probe interface{ Transient() bool }
	if errors.As(MarkTransient(errors.New("x")), &probe); !probe.Transient() {
		t.Fatal("sanity: MarkTransient must classify transient")
	}
}
