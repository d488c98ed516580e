package server

import (
	"sync"

	"parlist/internal/engine"
	"parlist/internal/obs"
)

// serverMetrics is the parlistd_* family set. Label-less families, and
// the per-framing, per-op request counters, are created eagerly so
// /metrics shows them from the first scrape; other labelled families
// materialise children on first use (obs.Registry constructors are
// idempotent lookups).
type serverMetrics struct {
	reg *obs.Registry
	// inflight is the number of admitted requests that have not yet
	// been responded to.
	inflight *obs.Gauge
	// batchSize observes the fused size of every flushed batch.
	batchSize *obs.Histogram
	// batchWait observes each item's enqueue→flush wait in ns.
	batchWait *obs.Histogram
	// serviceNs observes each served item's machine time in ns.
	serviceNs *obs.Histogram
	// respondNs observes each request's full enqueue→respond time in ns.
	respondNs *obs.Histogram
	// flushes counts batch flushes by trigger, one series per entry of
	// flushCauses.
	flushes map[string]*obs.Counter
	// reqs holds parlistd_requests_total's children for each framing in
	// protos, indexed by op, so admitting a request does no registry
	// lookup.
	reqs map[string][]*obs.Counter
	// shedTenants holds the tenants with a parlistd_tenant_shed_total
	// series of their own, at most maxShedTenants; shedMu guards it.
	shedMu      sync.Mutex
	shedTenants map[string]bool
}

// maxShedTenants caps the tenant label values of
// parlistd_tenant_shed_total. Tenant names come from clients, so the
// first maxShedTenants distinct tenants shed get their own series and
// every later one is counted under shedOtherTenant.
const maxShedTenants = 64

// shedOtherTenant is the folded tenant label value. Admission turns an
// empty name into DefaultTenant, so no admitted tenant carries it.
const shedOtherTenant = ""

// protos lists the framings that admit requests.
var protos = []string{"http", "binary"}

const requestsHelp = "Requests admitted, by framing and operation."

// flushCauses lists the batcher's flush triggers, in /statusz order:
// idle (an engine was free), size (the group filled to BatchSize),
// timer (the group was held MaxWait with every engine busy) and drain
// (Shutdown).
var flushCauses = []string{"idle", "size", "timer", "drain"}

func newServerMetrics(reg *obs.Registry) *serverMetrics {
	m := &serverMetrics{
		reg:      reg,
		inflight: reg.Gauge("parlistd_inflight", "Admitted requests not yet responded to."),
		batchSize: reg.Histogram("parlistd_batch_size",
			"Fused size of each flushed coalescing batch."),
		batchWait: reg.Histogram("parlistd_batch_wait_ns",
			"Per-item enqueue-to-flush wait in nanoseconds."),
		serviceNs: reg.Histogram("parlistd_service_ns",
			"Per-item machine service time in nanoseconds."),
		respondNs: reg.Histogram("parlistd_respond_ns",
			"Per-request enqueue-to-respond latency in nanoseconds."),
		flushes:     make(map[string]*obs.Counter, len(flushCauses)),
		shedTenants: make(map[string]bool, maxShedTenants),
	}
	for _, c := range flushCauses {
		m.flushes[c] = reg.Counter("parlistd_batch_flush_total",
			"Coalescing-batch flushes, by trigger.", "cause", c)
	}
	m.reqs = make(map[string][]*obs.Counter, len(protos))
	for _, p := range protos {
		byOp := make([]*obs.Counter, len(opsByName))
		for op := range byOp {
			byOp[op] = reg.Counter("parlistd_requests_total", requestsHelp,
				"proto", p, "op", engine.Op(op).String())
		}
		m.reqs[p] = byOp
	}
	return m
}

// requests counts admitted requests by framing and op. Any pair outside
// the pre-resolved set (an unknown op from a binary frame) is looked up
// in the registry.
func (m *serverMetrics) requests(proto string, op engine.Op) *obs.Counter {
	if byOp := m.reqs[proto]; op >= 0 && int(op) < len(byOp) {
		return byOp[op]
	}
	return m.reg.Counter("parlistd_requests_total", requestsHelp,
		"proto", proto, "op", op.String())
}

// failures counts non-OK responses by status label.
func (m *serverMetrics) failures(code string) *obs.Counter {
	return m.reg.Counter("parlistd_failures_total",
		"Non-OK responses, by status code label.",
		"code", code)
}

// sheds counts requests refused before running, by tenant (folded
// past maxShedTenants) and cause (over_limit, queue_full, inbox_full,
// draining).
func (m *serverMetrics) sheds(tenant, cause string) *obs.Counter {
	m.shedMu.Lock()
	if !m.shedTenants[tenant] {
		if len(m.shedTenants) < maxShedTenants {
			m.shedTenants[tenant] = true
		} else {
			tenant = shedOtherTenant
		}
	}
	m.shedMu.Unlock()
	return m.reg.Counter("parlistd_tenant_shed_total",
		"Requests shed before running, by tenant and cause.",
		"tenant", tenant, "cause", cause)
}
