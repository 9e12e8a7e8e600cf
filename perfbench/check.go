package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"marlin/internal/controlplane"
)

// checkConservation reconciles one tester readout: the switch's register
// ledger, every tested-network switch's forwarding ledger, and the loss
// report's totals against the snapshot's per-component counters. It also
// enforces the §4.2 floor of zero false losses.
func checkConservation(snap controlplane.Snapshot, loss controlplane.LossReport) error {
	sw := snap.Switch
	if loss.FalseLosses != 0 || sw.ScheDrops != 0 {
		return fmt.Errorf("false losses: report %d, registers %d", loss.FalseLosses, sw.ScheDrops)
	}
	if loss.RXDrops != snap.NIC.InfoDrops {
		return fmt.Errorf("rx drops: report %d != nic %d", loss.RXDrops, snap.NIC.InfoDrops)
	}
	// Every SCHE descriptor the switch admitted was either turned into
	// DATA, dropped, or still sits in its port's register queue.
	queued := 0
	for i, p := range snap.Ports {
		queued += p.QueueLen
		if p.ScheRx != p.DataTx+p.ScheDrops+uint64(p.QueueLen) {
			return fmt.Errorf("port %d: sche_rx %d != data_tx %d + sche_drops %d + queued %d",
				i, p.ScheRx, p.DataTx, p.ScheDrops, p.QueueLen)
		}
	}
	if sw.ScheRx != sw.DataTx+sw.ScheDrops+uint64(queued) {
		return fmt.Errorf("switch: sche_rx %d != data_tx %d + sche_drops %d + queued %d",
			sw.ScheRx, sw.DataTx, sw.ScheDrops, queued)
	}
	if sw.ScheRx > snap.NIC.ScheTx {
		return fmt.Errorf("switch received %d SCHE but the NIC sent %d", sw.ScheRx, snap.NIC.ScheTx)
	}
	if snap.NIC.InfoRx+snap.NIC.InfoDrops > sw.InfoTx {
		return fmt.Errorf("NIC took %d INFO (+%d dropped) but the switch sent %d",
			snap.NIC.InfoRx, snap.NIC.InfoDrops, sw.InfoTx)
	}
	// Each tested-network switch forwards, or counts as lost, every packet
	// it receives; its per-port losses are a share of the report's.
	var misroutes, drops, injected, down uint64
	for _, ns := range snap.Network {
		var fwd uint64
		for _, p := range ns.Ports {
			fwd += p.TxPackets
			drops += p.Drops
			injected += p.InjectedDrops
			down += p.DownDrops
		}
		if ns.RxPackets != fwd+ns.Unrouted+ns.Misroutes {
			return fmt.Errorf("switch %s: rx %d != forwarded %d + unrouted %d + misrouted %d",
				ns.Name, ns.RxPackets, fwd, ns.Unrouted, ns.Misroutes)
		}
		misroutes += ns.Misroutes
	}
	if misroutes != loss.Misroutes {
		return fmt.Errorf("misroutes: report %d != switches %d", loss.Misroutes, misroutes)
	}
	if drops > loss.NetworkDrops || injected > loss.InjectedDrops || down > loss.DownDrops {
		return fmt.Errorf("switch losses (drops %d, injected %d, down %d) exceed the report's (%d, %d, %d)",
			drops, injected, down, loss.NetworkDrops, loss.InjectedDrops, loss.DownDrops)
	}
	return nil
}

// digestOf hashes a value's JSON encoding; the simulated outputs it is
// given hold no host-time or pointer-derived values.
func digestOf(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // every digested type is plain data
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}
