package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// The service shell: what mcservd and mcfleet share around their own
// handlers — the JSON and error bodies, the Retry-After hint, the
// liveness and readiness probes, and the daemon lifecycle — so the two
// stay wire-compatible by construction.

// retryAfter is the Retry-After hint, in whole seconds, on every 429
// and 503 either daemon sends, so clients back off uniformly.
const retryAfter = "1"

// errorBody is the JSON body of every error response.
type errorBody struct {
	Error string `json:"error"`
}

// WriteJSON writes v as a JSON response with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError writes an error body, {"error": "..."}, with the given
// status.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// ReadError returns the message of an error body WriteError wrote, or
// the first 4 KiB of any other body, trimmed.
func ReadError(r io.Reader) string {
	raw, _ := io.ReadAll(io.LimitReader(r, 4096))
	var body errorBody
	if json.Unmarshal(raw, &body) == nil && body.Error != "" {
		return body.Error
	}
	return string(bytes.TrimSpace(raw))
}

// RetryLater is WriteError for a refusal the client should retry: it
// adds the Retry-After hint.
func RetryLater(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Retry-After", retryAfter)
	WriteError(w, status, format, args...)
}

// Healthz serves GET /healthz: the process is up.
func Healthz(w http.ResponseWriter, _ *http.Request) {
	io.WriteString(w, "ok\n")
}

// Readyz serves GET /readyz: 200 while ready reports true, then 503 with
// the Retry-After hint once draining.
func Readyz(ready func() bool) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		if !ready() {
			w.Header().Set("Retry-After", retryAfter)
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, "draining\n")
			return
		}
		io.WriteString(w, "ready\n")
	}
}

// Listen binds addr and, when addrFile is non-empty, writes the bound
// address to it, so scripts can start a daemon on port 0.
func Listen(addr, addrFile string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			ln.Close()
			return nil, err
		}
	}
	return ln, nil
}

// Serve serves h on ln until SIGINT or SIGTERM arrives or ctx ends,
// then shuts down gracefully: it stops accepting connections and waits
// up to drain for in-flight requests. It returns nil after such a
// stop, or the error that stopped serving. The caller then drains its
// own work, as Server.Drain does. Progress is logged to stderr,
// prefixed by name.
func Serve(ctx context.Context, name string, ln net.Listener, h http.Handler, drain time.Duration) error {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	fmt.Fprintf(os.Stderr, "%s: listening on %s\n", name, ln.Addr())
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "%s: %v, draining\n", name, s)
	case <-ctx.Done():
		fmt.Fprintf(os.Stderr, "%s: %v, draining\n", name, ctx.Err())
	case err := <-errCh:
		return err
	}
	// The drain budget runs from the stop, whatever ended ctx.
	dctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), drain)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		fmt.Fprintf(os.Stderr, "%s: shutdown: %v\n", name, err)
	}
	return nil
}
