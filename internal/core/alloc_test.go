package core_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"globedoc/internal/alloctest"
	"globedoc/internal/core"
	"globedoc/internal/deploy"
	"globedoc/internal/document"
	"globedoc/internal/keys/keytest"
	"globedoc/internal/netsim"
	"globedoc/internal/server"
	"globedoc/internal/telemetry"
)

// Allocation budgets of the fetch plan's two operations, in heap objects
// per call across the whole process (the replica's serving side
// included): the counts of a cold binding made in one obj.bind exchange
// (256 and 372, identical over repeated runs; the step-RPC binding it
// replaced took 431 and 571) plus 2 %, so a toolchain difference does
// not flake.
const (
	coldFetchAllocBudget    = 261
	coldFetchAllAllocBudget = 379
)

func TestFetchPlanAllocationBudget(t *testing.T) {
	w, err := deploy.NewWorld(deploy.Options{TimeScale: 0})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	if _, err := w.StartServer(netsim.AmsterdamPrimary, "srv", nil, nil, server.Limits{}); err != nil {
		t.Fatal(err)
	}
	doc := document.New()
	for i := 0; i < 10; i++ {
		doc.Put(document.Element{
			Name: fmt.Sprintf("part-%02d.bin", i),
			Data: bytes.Repeat([]byte{byte('a' + i)}, 10<<10),
		})
	}
	pub, err := w.Publish(doc, deploy.PublishOptions{Name: "alloc.vu.nl", OwnerKey: keytest.RSA()})
	if err != nil {
		t.Fatal(err)
	}
	client, err := w.NewSecureClientOpts(netsim.Paris, core.Options{Telemetry: telemetry.New(nil)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)
	ctx := context.Background()

	fetch := alloctest.AllocsPerRun(t, 20, func() {
		if _, err := client.Fetch(ctx, pub.OID, "part-03.bin"); err != nil {
			t.Fatal(err)
		}
	})
	all := alloctest.AllocsPerRun(t, 20, func() {
		if res, err := client.FetchAll(ctx, pub.OID); err != nil || len(res) != 10 {
			t.Fatalf("FetchAll: %d results, %v", len(res), err)
		}
	})
	t.Logf("cold Fetch %.0f allocs, cold FetchAll of 10 x 10 KiB %.0f allocs", fetch, all)
	if fetch > coldFetchAllocBudget {
		t.Errorf("cold Fetch allocates %.0f objects, budget %d", fetch, coldFetchAllocBudget)
	}
	if all > coldFetchAllAllocBudget {
		t.Errorf("cold FetchAll allocates %.0f objects, budget %d", all, coldFetchAllAllocBudget)
	}
}
