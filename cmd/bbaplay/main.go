// Command bbaplay streams a title from a dashserver over real HTTP,
// optionally through an emulated bandwidth-limited link, and reports the
// session's quality metrics. With dashserver running, bbaplay -shape 3000
// -watch 30s -whatif is the manual real-socket streaming demo; tests hold
// the same path (dash.Stream through a shaped link, and over a starved one).
//
// Example (with dashserver running):
//
//	bbaplay -url http://127.0.0.1:8404 -alg BBA-2 -watch 30s -shape 3000
//
// -journal takes a file path, or a bbacollect URL with an optional run id —
// the paper's own arrangement, players shipping their own logs:
//
//	bbaplay -url http://127.0.0.1:8404 -journal http://127.0.0.1:8406/living-room
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	neturl "net/url"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"bba/internal/abr"
	"bba/internal/collect"
	"bba/internal/dash"
	"bba/internal/media"
	"bba/internal/netem"
	"bba/internal/obs"
	"bba/internal/player"
	"bba/internal/telemetry"
	"bba/internal/trace"
	"bba/internal/units"
)

func main() {
	var (
		url     = flag.String("url", "http://127.0.0.1:8404", "dashserver base URL")
		algName = flag.String("alg", "BBA-2", "algorithm: "+strings.Join(abr.Names(), ", "))
		watch   = flag.Duration("watch", 30*time.Second, "how much video to watch (real time!)")
		shape   = flag.Int("shape", 0, "emulated downstream capacity in kb/s (0 = unshaped)")
		rmin    = flag.Int("rmin", 0, "promoted minimum rate in kb/s")
		whatIf  = flag.Bool("whatif", false, "after the session, replay every algorithm against the observed network and print the counterfactual comparison")
		journal = flag.String("journal", "", "write the session's telemetry events as JSONL to this file, or ship them to this bbacollect URL (http://host:port[/run-id])")
		quiet   = flag.Bool("q", false, "suppress per-chunk progress")
	)
	flag.Parse()

	obs.Main("bbaplay", func(ctx context.Context) error {
		return run(ctx, os.Stdout, *url, *algName, *watch, *shape, *rmin, *whatIf, *quiet, *journal)
	})
}

// run streams one session until it ends or ctx is cancelled; either way the
// journal is flushed before it returns, and a journal that lost events fails
// the run.
func run(ctx context.Context, out io.Writer, url, algName string, watch time.Duration, shapeKbps, rminKbps int, whatIf, quiet bool, journal string) (err error) {
	alg, err := abr.New(algName)
	if err != nil {
		return err
	}
	httpc := http.DefaultClient
	if shapeKbps > 0 {
		linkTrace := trace.Constant(units.BitRate(shapeKbps)*units.Kbps, 24*time.Hour)
		httpc = &http.Client{Transport: &http.Transport{
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
				if err != nil {
					return nil, err
				}
				return netem.NewConn(c, netem.NewShaper(linkTrace)), nil
			},
		}}
	}

	// One id per run names the session everywhere: to the origin (a
	// fault-mode origin draws this viewer's faults from it, and its
	// fault_inject events carry it), as the shipped journal's stream and as
	// every event's session label, so the two join.
	id := rand.Uint64()
	cfg := dash.ClientConfig{
		BaseURL:    url,
		Fetch:      dash.FetchPolicy{Seed: int64(id)},
		HTTPClient: httpc,
		Algorithm:  alg,
		Rmin:       units.BitRate(rminKbps) * units.Kbps,
		WatchLimit: watch,
	}
	if !quiet {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(out, format+"\n", args...)
		}
	}
	var (
		sinks   []telemetry.Observer
		capture telemetry.Capture // the -whatif replay's per-chunk log
	)
	if whatIf {
		sinks = append(sinks, &capture)
	}
	if journal != "" {
		sink, done, oerr := openJournal(journal, id)
		if oerr != nil {
			return oerr
		}
		defer func() {
			if derr := done(); err == nil {
				err = derr
			}
		}()
		sinks = append(sinks, sink)
	}
	if next := telemetry.Multi(sinks...); next != nil {
		cfg.Observer = telemetry.Stamp{Session: strconv.FormatUint(id, 10), Next: next}
	}
	res, err := dash.Stream(ctx, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nsession summary (%s over HTTP)\n", alg.Name())
	fmt.Fprintf(out, "  session id        %d\n", id)
	fmt.Fprintf(out, "  chunks            %d\n", res.ChunkCount())
	fmt.Fprintf(out, "  played            %v\n", res.Played.Round(time.Second))
	fmt.Fprintf(out, "  join delay        %v\n", res.JoinDelay.Round(time.Millisecond))
	fmt.Fprintf(out, "  rebuffers         %d (%.1fs frozen)\n", res.Rebuffers, res.StallTime.Seconds())
	fmt.Fprintf(out, "  average rate      %.0f kb/s\n", res.AvgRateKbps())
	fmt.Fprintf(out, "  switches          %d\n", res.Switches)

	if whatIf {
		if err := printWhatIf(out, capture.Events, res.ChunkCount(), watch, rminKbps); err != nil {
			return fmt.Errorf("what-if replay: %w", err)
		}
	}
	return nil
}

// openJournal opens the session's event sink. A collector URL ships the
// events as the run named by its path (default "bbaplay") on stream id;
// anything else is a JSONL file path. done flushes and releases the sink
// and reports what the flush could not deliver.
func openJournal(target string, id uint64) (sink telemetry.Observer, done func() error, err error) {
	if u, perr := neturl.Parse(target); perr == nil && (u.Scheme == "http" || u.Scheme == "https") {
		run := strings.Trim(u.Path, "/")
		if run == "" {
			run = "bbaplay"
		}
		// The default 256-frame queue outlasts any collector outage the
		// retries ride out. A frame is given up on after ≤ ≈ 11.44 s of
		// backoff (50 ms doubling to the 2 s cap, ±25 % jitter, 10 attempts)
		// plus ≤ 10 × the 10 s client timeout, ≈ 111 s; the 500 ms flush
		// timer seals ≤ 2 frames/s, so ≤ ≈ 223 frames queue behind it. A
		// longer outage has already dropped that frame, and a drop fails the
		// run.
		s, err := collect.NewShipper(collect.ShipperConfig{
			Addr:    u.Scheme + "://" + u.Host,
			Run:     run,
			Session: id,
		})
		if err != nil {
			return nil, nil, err
		}
		return s, func() error {
			err := s.Close() // seals the partial batch and waits for the acknowledgements
			if st := s.Stats(); err == nil && st.EventsDropped+st.FramesDropped > 0 {
				err = fmt.Errorf("journal: %d events and %d frames never reached %s", st.EventsDropped, st.FramesDropped, target)
			}
			return err
		}, nil
	}
	f, err := os.Create(target)
	if err != nil {
		return nil, nil, err
	}
	j := telemetry.NewJournal(f)
	return j, func() error {
		err := j.Flush()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	}, nil
}

// printWhatIf replays the network a session's events observed against every
// algorithm in virtual time — the counterfactual the paper's Figure 4 poses.
func printWhatIf(out io.Writer, events []telemetry.Event, chunks int, watch time.Duration, rminKbps int) error {
	tr, err := player.ObservedTrace(events)
	if err != nil {
		return err
	}
	// Rebuild a stream shaped like the observed session: the recorded
	// chunks carry the actual sizes, so a nominal title of the observed
	// chunk count suffices for the counterfactual.
	video, err := media.NewVBR(media.VBRConfig{
		Title:         "whatif",
		Ladder:        media.DefaultLadder(),
		ChunkDuration: media.DefaultChunkDuration,
		NumChunks:     max(chunks, 2),
	}, rand.New(rand.NewSource(1)))
	if err != nil {
		return err
	}
	stream := abr.NewStream(video, units.BitRate(rminKbps)*units.Kbps)

	fmt.Fprintf(out, "\nwhat-if on the observed network (virtual-time replay)\n")
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "algorithm\tavg rate\trebuffers\tfrozen\tswitches")
	for _, name := range abr.Names() {
		alg, err := abr.New(name)
		if err != nil {
			return err
		}
		res, err := player.Run(player.Config{
			Algorithm:  alg,
			Stream:     stream,
			Trace:      tr,
			WatchLimit: watch,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\t%.0f kb/s\t%d\t%.1fs\t%d\n",
			name, res.AvgRateKbps(), res.Rebuffers, res.StallTime.Seconds(), res.Switches)
	}
	return w.Flush()
}
