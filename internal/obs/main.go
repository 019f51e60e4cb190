package obs

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
)

// ErrUsage marks a command line the command could not act on — an undefined
// flag, a missing or unknown subcommand. The command has already told the
// user what is wrong (the flag package prints its own diagnosis and usage),
// so Main adds nothing and exits 2, the flag package's own exit code.
var ErrUsage = errors.New("usage error")

// Main is the body of a command's main function: it runs run under a
// context that SIGINT or SIGTERM cancels — so a plain kill takes the same
// drain, checkpoint and flush path as Ctrl-C — and on error prints
// "name: err" to stderr and exits 1 (see ErrUsage for the one exception).
func Main(name string, run func(ctx context.Context) error) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx)
	stop()
	if errors.Is(err, ErrUsage) {
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		os.Exit(1)
	}
}

// Parse parses a subcommand's or command's arguments with a FlagSet built
// flag.ContinueOnError, mapping the outcomes onto Main's exit codes: -h is
// not an error (usage is printed, done reports true), anything the flag
// package rejects — it has printed why — or a positional argument is
// ErrUsage: no command takes one.
func Parse(fs *flag.FlagSet, args []string) (done bool, err error) {
	switch err := fs.Parse(args); {
	case errors.Is(err, flag.ErrHelp):
		return true, nil
	case err != nil:
		return true, fmt.Errorf("%w: %v", ErrUsage, err)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(fs.Output(), "%s: unexpected argument %q\n", fs.Name(), fs.Arg(0))
		fs.Usage()
		return true, fmt.Errorf("%w: unexpected argument %q", ErrUsage, fs.Arg(0))
	}
	return false, nil
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
