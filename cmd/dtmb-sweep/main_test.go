package main

import (
	"bytes"
	"context"
	"flag"
	"log/slog"
	"reflect"
	"strings"
	"testing"

	"dmfb/client"
	"dmfb/internal/service"
)

// TestHelpNamesAllStrategiesAndAxes smoke-tests the -h output: every
// redundancy strategy and both defect models must be named, so the flag
// docs cannot silently go stale when an axis is added.
func TestHelpNamesAllStrategiesAndAxes(t *testing.T) {
	fs := flag.NewFlagSet("dtmb-sweep", flag.ContinueOnError)
	registerFlags(fs)
	var buf bytes.Buffer
	fs.SetOutput(&buf)
	fs.PrintDefaults()
	usage := buf.String()
	for _, want := range []string{
		"none, local, shifted, hex", // the four strategies, in the -strategies doc
		"defect-models",
		"independent, clustered", // both defect models, in the -defect-models doc
		"cluster-size",
		"spare-rows",
		"dtmb-serve base URL", // the -server remote path
	} {
		if !strings.Contains(usage, want) {
			t.Errorf("-h output does not mention %q:\n%s", want, usage)
		}
	}
}

// TestRemoteSweepMatchesLocalBytes runs the same grid through both of
// main's paths — the in-process engine and a remote /v2 job streamed by the
// typed client — into the CSV emitter, and asserts identical bytes. The
// engine configurations match (same default runs), so the chunk-seeded
// kernel pins every digit.
func TestRemoteSweepMatchesLocalBytes(t *testing.T) {
	req := service.SweepRequest{
		Strategies:   []string{"none", "local", "shifted", "hex"},
		Designs:      []string{"DTMB(2,6)"},
		NPrimaries:   []int{40},
		Ps:           []float64{0.9, 0.95},
		SpareRows:    []int{1},
		DefectModels: []string{"independent", "clustered"},
		ClusterSize:  4,
		Runs:         150,
		Seed:         11,
	}

	runEmitter := func(run func(emit func(service.SweepRecord) error) error) []byte {
		t.Helper()
		var buf bytes.Buffer
		emit, finish, err := newEmitter("csv", &buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := run(emit); err != nil {
			t.Fatal(err)
		}
		if err := finish(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	engine := service.NewEngine(service.EngineConfig{DefaultRuns: req.Runs})
	local := runEmitter(func(emit func(service.SweepRecord) error) error {
		plan, err := engine.PlanSweep(req)
		if err != nil {
			return err
		}
		return engine.RunSweep(context.Background(), plan, func(run []service.SweepRecord) error {
			for _, rec := range run {
				if err := emit(rec); err != nil {
					return err
				}
			}
			return nil
		})
	})

	srv, err := service.NewServer(service.ServerConfig{
		Addr:   "127.0.0.1:0",
		Engine: service.EngineConfig{DefaultRuns: req.Runs},
		Logger: slog.New(slog.DiscardHandler),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve() }()
	defer func() {
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Error(err)
		}
		if err := <-serveDone; err != nil {
			t.Error(err)
		}
	}()

	c := client.New("http://" + srv.Addr())
	remote := runEmitter(func(emit func(service.SweepRecord) error) error {
		st, err := c.CreateJob(context.Background(), req)
		if err != nil {
			return err
		}
		_, err = c.StreamJobResults(context.Background(), st.ID, 0, emit)
		return err
	})

	if !bytes.Equal(local, remote) {
		t.Errorf("remote CSV differs from local CSV:\nlocal:\n%s\nremote:\n%s", local, remote)
	}
}

func TestSplitDesignsKeepsParenthesizedNames(t *testing.T) {
	got := splitDesigns("DTMB(2,6), dtmb44 ,DTMB(3,6)")
	want := []string{"DTMB(2,6)", "dtmb44", "DTMB(3,6)"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("splitDesigns = %v, want %v", got, want)
	}
}

func TestParseListsRejectGarbage(t *testing.T) {
	if _, err := parseInts("1,x"); err == nil {
		t.Error("parseInts accepted garbage")
	}
	if _, err := parseFloats("0.9,oops"); err == nil {
		t.Error("parseFloats accepted garbage")
	}
	ints, err := parseInts(" 1, 2 ,3 ")
	if err != nil || !reflect.DeepEqual(ints, []int{1, 2, 3}) {
		t.Errorf("parseInts = %v, %v", ints, err)
	}
}
