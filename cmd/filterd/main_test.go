package main

import (
	"net/http"
	"testing"
	"time"
)

// TestHTTPServerSetsTimeouts: the HTTP API must not let a client that
// stalls its headers, body or response hold a connection forever, and its
// idle timeout must outlast a streaming client's update cadence by far.
func TestHTTPServerSetsTimeouts(t *testing.T) {
	h := http.NewServeMux()
	s := newHTTPServer(h)
	if s.Handler != h {
		t.Fatal("server does not serve the given handler")
	}
	for name, d := range map[string]time.Duration{
		"ReadHeaderTimeout": s.ReadHeaderTimeout,
		"ReadTimeout":       s.ReadTimeout,
		"WriteTimeout":      s.WriteTimeout,
		"IdleTimeout":       s.IdleTimeout,
	} {
		if d <= 0 {
			t.Errorf("%s = %v, want a positive timeout", name, d)
		}
	}
	if s.ReadHeaderTimeout > s.ReadTimeout {
		t.Errorf("ReadHeaderTimeout %v exceeds ReadTimeout %v", s.ReadHeaderTimeout, s.ReadTimeout)
	}
	// A client posting an update every 120 ms must keep its connection.
	if s.IdleTimeout < 100*120*time.Millisecond {
		t.Errorf("IdleTimeout = %v, want far above a 120ms update cadence", s.IdleTimeout)
	}
}
