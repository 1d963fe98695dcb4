package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"
)

// The HTTP shell the server and the cluster coordinator share: how a body
// is read, how a reply is written, how a listener lives and dies.

// maxBodyBytes bounds request bodies; NFC sources are small programs.
const maxBodyBytes = 1 << 20

// DecodeBody parses a JSON request body, refusing unknown fields, anything
// after the one value and anything over maxBodyBytes. The error text is
// the 400 reply.
func DecodeBody(w http.ResponseWriter, r *http.Request, into any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	var tooLarge *http.MaxBytesError
	err := dec.Decode(into)
	if err == nil {
		// A second value, or garbage, after the first is a malformed
		// request, not one to answer as if it ended where it parsed.
		if _, more := dec.Token(); more != io.EOF {
			err = errors.New("unexpected data after the JSON value")
			if errors.As(more, &tooLarge) {
				err = more
			}
		}
	}
	switch {
	case errors.As(err, &tooLarge):
		return fmt.Errorf("request body too large (limit %d bytes)", tooLarge.Limit)
	case err != nil:
		return fmt.Errorf("bad request body: %v", err)
	}
	return nil
}

// WriteJSON writes v as one compact JSON line (humans pipe it through
// `python3 -m json.tool`) and returns status for the caller's accounting.
func WriteJSON(w http.ResponseWriter, status int, v any) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // the client may already be gone
	return status
}

// WriteError writes the {"error": msg} reply every failure uses.
func WriteError(w http.ResponseWriter, status int, msg string) int {
	return WriteJSON(w, status, map[string]string{"error": msg})
}

// WriteResults writes the analyze reply {"results":[…]} around result
// objects that are already JSON — the server's headers spliced around
// stored insights, the coordinator's worker bytes — without handing them
// to an encoder, which would re-scan every byte to validate and compact
// what was valid and compact when it was stored.
func WriteResults(w http.ResponseWriter, results [][]byte) int {
	const open, sep, end = `{"results":[`, ",", "]}\n"
	n := len(open) + len(end) + len(results)*len(sep)
	for _, r := range results {
		n += len(r)
	}
	buf := make([]byte, 0, n)
	buf = append(buf, open...)
	for i, r := range results {
		if i > 0 {
			buf = append(buf, sep...)
		}
		buf = append(buf, r...)
	}
	buf = append(buf, end...)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(buf) //nolint:errcheck // the client may already be gone
	return http.StatusOK
}

// ListenAndDrain serves h on addr until ctx is canceled, then runs drain
// (nil for a handler with no in-flight state of its own) and closes the
// listener, both inside one 30s grace period.
func ListenAndDrain(ctx context.Context, addr string, h http.Handler, drain func(context.Context) error) error {
	srv := &http.Server{Addr: addr, Handler: h}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	grace, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if drain != nil {
		if err := drain(grace); err != nil {
			return err
		}
	}
	return srv.Shutdown(grace)
}
