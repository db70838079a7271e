package main

import (
	"fmt"
	"time"

	"vsnoop/internal/cache"
	"vsnoop/internal/mem"
	"vsnoop/internal/system"
	"vsnoop/internal/workload"
)

// microReps is how many times each micro-drive repeats; the median counts.
const microReps = 5

// generators builds the per-vCPU reference generators of one simulation
// exactly as system.New seeds them, and their VM ids.
func generators(sc system.Config) ([]*workload.Generator, []mem.VMID) {
	var gens []*workload.Generator
	var vms []mem.VMID
	for vm := 0; vm < sc.VMs; vm++ {
		name := sc.Workloads[0]
		if len(sc.Workloads) > 1 {
			name = sc.Workloads[vm]
		}
		prof := workload.MustGet(name)
		if sc.NoHypervisor {
			prof.XenFrac, prof.Dom0Frac = 0, 0
		}
		for t := 0; t < sc.VCPUsPerVM; t++ {
			gens = append(gens, workload.NewGenerator(prof, sc.VCPUsPerVM, t, sc.Seed+uint64(vm)*1000))
			vms = append(vms, mem.VMID(vm))
		}
	}
	return gens, vms
}

// genNsPerRef times workload.Generator.Next over every per-vCPU stream the
// simulations consume, RefsPerVCPU references each.
func genNsPerRef(scs []system.Config) float64 {
	var per []float64
	for r := 0; r < microReps; r++ {
		var elapsed time.Duration
		refs := 0
		for _, sc := range scs {
			gens, _ := generators(sc)
			t0 := time.Now()
			for _, g := range gens {
				for i := 0; i < sc.RefsPerVCPU; i++ {
					g.Next()
				}
			}
			elapsed += time.Since(t0)
			refs += len(gens) * sc.RefsPerVCPU
		}
		per = append(per, float64(elapsed.Nanoseconds())/float64(refs))
	}
	return median(per)
}

// access is one reference of a vCPU's stream as the caches see it.
type access struct {
	addr  mem.BlockAddr
	vm    mem.VMID // tag owner
	write bool
}

// accesses translates every reference of a simulation's vCPU streams
// through the memory map of the machine system.New builds for it, its
// pages allocated in the simulator's first-touch order: guest
// pages through Translate (merged content pages included), hypervisor
// pages through HypervisorPage. A store to a content-shared page breaks
// the sharing with CopyOnWrite first, as the serial simulator does.
func accesses(sc system.Config) ([][]access, error) {
	m, err := system.New(sc)
	if err != nil {
		return nil, err
	}
	m.MM.PreallocateAll() // the host-page numbering of a simulated run
	gens, vms := generators(sc)
	streams := make([][]access, len(gens))
	for i, g := range gens {
		s := make([]access, sc.RefsPerVCPU)
		for j := range s {
			ref := g.Next()
			var host mem.HostPage
			tag := vms[i]
			switch ref.Ctx {
			case workload.CtxGuest:
				tr := m.MM.Translate(tag, ref.Page)
				if ref.Write && tr.Type == mem.PageROShared {
					_, tr.Host = m.MM.CopyOnWrite(tag, ref.Page)
				}
				host = tr.Host
			default:
				host, tag = m.MM.HypervisorPage(ref.Hv), mem.Hypervisor
			}
			s[j] = access{addr: mem.BlockInPage(host, ref.Block), vm: tag, write: ref.Write}
		}
		streams[i] = s
	}
	return streams, nil
}

// cacheAccessNs drives a private L1 and L2 per vCPU, built with cache.New
// from each simulation's cache configs, with that vCPU's translated
// addresses, in the order the simulator calls them: a read looks up the
// L1 and then the L2 (touching hits), and fills both on a miss; a write
// skips the write-through L1 and looks up the L2, inserting on a miss.
// Coherence is left out: a resident block always hits. It returns ns per
// reference.
func cacheAccessNs(scs []system.Config) (float64, error) {
	type stream struct {
		sc   system.Config
		refs []access
	}
	var streams []stream
	for _, sc := range scs {
		per, err := accesses(sc)
		if err != nil {
			return 0, fmt.Errorf("cache micro-drive: %w", err)
		}
		for _, refs := range per {
			streams = append(streams, stream{sc: sc, refs: refs})
		}
	}
	var per []float64
	for r := 0; r < microReps; r++ {
		var elapsed time.Duration
		refs := 0
		for _, s := range streams {
			l1, l2 := cache.New(s.sc.L1), cache.New(s.sc.L2)
			t0 := time.Now()
			for _, a := range s.refs {
				if !a.write {
					if b := l1.Lookup(a.addr); b != nil {
						l1.Touch(b)
						if b := l2.Lookup(a.addr); b != nil {
							l2.Touch(b)
						}
						continue
					}
				}
				if b := l2.Lookup(a.addr); b != nil {
					l2.Touch(b)
				} else {
					l2.Insert(a.addr, a.vm)
				}
				if !a.write && l1.Lookup(a.addr) == nil {
					l1.Insert(a.addr, a.vm)
				}
			}
			elapsed += time.Since(t0)
			refs += len(s.refs)
		}
		per = append(per, float64(elapsed.Nanoseconds())/float64(refs))
	}
	return median(per), nil
}
