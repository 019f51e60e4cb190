package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
)

// Main is the body of a command's main function: it runs run under a
// context that SIGINT or SIGTERM cancels — so a plain kill takes the same
// drain, checkpoint and flush path as Ctrl-C — and on error prints
// "name: err" to stderr and exits 1.
func Main(name string, run func(ctx context.Context) error) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx)
	stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		os.Exit(1)
	}
}

// WriteHealth answers a /healthz probe: fields plus "status" as one JSON
// object (fields is modified), served 200 when healthy and 503 when not.
func WriteHealth(w http.ResponseWriter, healthy bool, status string, fields map[string]any) {
	if fields == nil {
		fields = make(map[string]any, 1)
	}
	fields["status"] = status
	code := http.StatusOK
	if !healthy {
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(fields)
}
