package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestHTTPServerBoundsHeaderReads checks the daemon's server sets a header
// read deadline (without one, a client that never finishes its headers
// holds a connection forever) and serves the handler it was given.
func TestHTTPServerBoundsHeaderReads(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusTeapot) })
	srv := newHTTPServer(h)
	if srv.ReadHeaderTimeout <= 0 || srv.ReadHeaderTimeout != readHeaderTimeout {
		t.Fatalf("ReadHeaderTimeout = %v, want %v", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	rec := httptest.NewRecorder()
	srv.Handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	if rec.Code != http.StatusTeapot {
		t.Fatalf("handler not wired: status %d", rec.Code)
	}
}
