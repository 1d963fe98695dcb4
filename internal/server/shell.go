package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"
)

// The HTTP shell the server and the cluster coordinator share: how a body
// is read, how a reply is written, how a listener lives and dies.

// maxBodyBytes bounds request bodies; NFC sources are small programs.
const maxBodyBytes = 1 << 20

// DecodeBody parses a JSON request body, refusing unknown fields and
// anything over maxBodyBytes. The error text is the 400 reply.
func DecodeBody(w http.ResponseWriter, r *http.Request, into any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(into)
	var tooLarge *http.MaxBytesError
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
