package netsim

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/simtime"
)

// Topology is the canonical testbed layout the evaluation runs on,
// mirroring Figure 1 of the paper: an "Internet" side behind a border
// router, a protected LAN of cluster hosts, and attachment points for an
// IDS (a SPAN mirror on the LAN switch, or an in-line slot between router
// and switch).
//
//	ext hosts ── extSwitch ── borderRouter ──[inline slot]── lanSwitch ── cluster hosts
//	                                                             │
//	                                                           mirror
type Topology struct {
	Sim          *simtime.Sim
	Border       *Router
	ExtSwitch    *Switch
	LanSwitch    *Switch
	External     []*Host
	Cluster      []*Host
	routerToLan  *Link
	extTrunk     *Link
	lanPrefix    packet.Addr
	nextHostLink LinkConfig
	obsReg       *obs.Registry
}

// TopologyConfig parameterizes BuildTopology.
type TopologyConfig struct {
	// ClusterHosts is the number of protected LAN hosts (default 8).
	ClusterHosts int
	// ExternalHosts is the number of Internet-side hosts (default 4).
	ExternalHosts int
	// HostLink configures each host's access link (defaults per NewLink).
	HostLink LinkConfig
	// BackboneLink configures router<->switch trunks (default 10 Gb/s).
	BackboneLink LinkConfig
	// SwitchLatency is the LAN switch forwarding latency (default 5µs).
	SwitchLatency time.Duration
	// RouterLatency is the border router forwarding latency (default 20µs).
	RouterLatency time.Duration
}

// LanPrefix is the protected network (10.1.0.0/16).
var LanPrefix = packet.IPv4(10, 1, 0, 0)

// ExtPrefix is the external network (203.0.0.0/16).
var ExtPrefix = packet.IPv4(203, 0, 0, 0)

// PlanCapacity is how many hosts each side of the address plan holds:
// host i sits at third octet i/250+1 (1–255) and fourth octet i%250+1
// (1–250) of its /16.
const PlanCapacity = 255 * 250

// ClusterAddr returns the address of cluster host i (0-based).
func ClusterAddr(i int) packet.Addr {
	return LanPrefix + packet.Addr(i/250+1)<<8 + packet.Addr(i%250+1)
}

// ExternalAddr returns the address of external host i (0-based).
func ExternalAddr(i int) packet.Addr {
	return ExtPrefix + packet.Addr(i/250+1)<<8 + packet.Addr(i%250+1)
}

// PlanSizing inverts ClusterAddr and ExternalAddr: it returns how many
// cluster and external hosts a testbed needs so that a is one of them.
// An address outside the plan needs none (0, 0).
func PlanSizing(a packet.Addr) (cluster, external int) {
	o1, o2, o3, o4 := a.Octets()
	if o3 < 1 || o4 < 1 || o4 > 250 {
		return 0, 0
	}
	n := int(o3-1)*250 + int(o4)
	switch {
	case o1 == 10 && o2 == 1:
		return n, 0
	case o1 == 203 && o2 == 0:
		return 0, n
	}
	return 0, 0
}

// BuildTopology wires the canonical testbed.
func BuildTopology(sim *simtime.Sim, cfg TopologyConfig) *Topology {
	if cfg.ClusterHosts <= 0 {
		cfg.ClusterHosts = 8
	}
	if cfg.ExternalHosts <= 0 {
		cfg.ExternalHosts = 4
	}
	if cfg.BackboneLink.BandwidthBps <= 0 {
		cfg.BackboneLink.BandwidthBps = 10e9
	}
	if cfg.BackboneLink.BufferBytes <= 0 {
		cfg.BackboneLink.BufferBytes = 4 << 20
	}
	if cfg.SwitchLatency == 0 {
		cfg.SwitchLatency = 5 * time.Microsecond
	}
	if cfg.RouterLatency == 0 {
		cfg.RouterLatency = 20 * time.Microsecond
	}

	t := &Topology{
		Sim:          sim,
		Border:       NewRouter(sim, "border-router", cfg.RouterLatency),
		ExtSwitch:    NewSwitch(sim, "ext-switch", cfg.SwitchLatency),
		LanSwitch:    NewSwitch(sim, "lan-switch", cfg.SwitchLatency),
		lanPrefix:    LanPrefix,
		nextHostLink: cfg.HostLink,
	}

	extTrunk := cfg.BackboneLink
	extTrunk.Name = "ext-trunk"
	lanTrunk := cfg.BackboneLink
	lanTrunk.Name = "lan-trunk"

	extLink := NewLink(sim, t.ExtSwitch, t.Border, extTrunk)
	t.ExtSwitch.SetUplink(extLink)
	lanLink := NewLink(sim, t.Border, t.LanSwitch, lanTrunk)
	t.LanSwitch.SetUplink(lanLink)
	t.routerToLan = lanLink
	t.extTrunk = extLink

	t.Border.AddRoute(LanPrefix, 16, lanLink)
	t.Border.AddRoute(ExtPrefix, 16, extLink)

	for i := 0; i < cfg.ClusterHosts; i++ {
		h := NewHost(sim, fmt.Sprintf("node%02d", i), ClusterAddr(i))
		t.LanSwitch.Connect(h, cfg.HostLink)
		t.Cluster = append(t.Cluster, h)
	}
	for i := 0; i < cfg.ExternalHosts; i++ {
		h := NewHost(sim, fmt.Sprintf("ext%02d", i), ExternalAddr(i))
		t.ExtSwitch.Connect(h, cfg.HostLink)
		t.External = append(t.External, h)
	}
	return t
}

// Validate checks the wiring invariants a built topology must satisfy
// before traffic runs: every host attached to a link, both trunks
// present, and both switches holding an uplink. It exists so
// misconfiguration surfaces as a construction-time error from the
// harness that assembled the topology instead of a mid-simulation
// failure deep in a Send path.
func (t *Topology) Validate() error {
	if t.routerToLan == nil {
		return fmt.Errorf("netsim: topology %s: missing router<->LAN trunk", t.LanSwitch.Name())
	}
	if t.extTrunk == nil {
		return fmt.Errorf("netsim: topology %s: missing external trunk", t.ExtSwitch.Name())
	}
	for _, h := range t.Cluster {
		if h.link == nil {
			return fmt.Errorf("netsim: cluster host %q has no link", h.Name())
		}
	}
	for _, h := range t.External {
		if h.link == nil {
			return fmt.Errorf("netsim: external host %q has no link", h.Name())
		}
	}
	return nil
}

// TrunkLink returns the router<->LAN trunk (the inline-north link after
// InsertInline) — the backbone segment fault scenarios target as
// "link:lan-trunk".
func (t *Topology) TrunkLink() *Link { return t.routerToLan }

// ExtTrunkLink returns the external switch<->router trunk, the segment
// fault scenarios target as "link:ext-trunk".
func (t *Topology) ExtTrunkLink() *Link { return t.extTrunk }

// Instrument wires telemetry for the topology's backbone: both trunk
// links and both switches. Links attached later (SPAN mirror, inline
// splice) pick the registry up automatically. A nil registry disables
// telemetry at zero cost; call before the simulation runs.
func (t *Topology) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	t.obsReg = reg
	t.extTrunk.Instrument(reg)
	t.routerToLan.Instrument(reg)
	t.ExtSwitch.Instrument(reg)
	t.LanSwitch.Instrument(reg)
}

// AddClusterHost adds another protected host to the LAN and returns it.
func (t *Topology) AddClusterHost() *Host {
	i := len(t.Cluster)
	h := NewHost(t.Sim, fmt.Sprintf("node%02d", i), ClusterAddr(i))
	t.LanSwitch.Connect(h, t.nextHostLink)
	t.Cluster = append(t.Cluster, h)
	return h
}

// AttachMirror connects a passive sink to the LAN switch SPAN port over a
// link with the given config, returning the link.
func (t *Topology) AttachMirror(sink Endpoint, cfg LinkConfig) *Link {
	if cfg.Name == "" {
		cfg.Name = "span"
	}
	l := NewLink(t.Sim, t.LanSwitch, sink, cfg)
	l.Instrument(t.obsReg)
	t.LanSwitch.SetMirror(l)
	return l
}

// InsertInline splices an in-line device into the router<->LAN trunk:
// router ── d ── lanSwitch. All north-south traffic then traverses d. The
// device must not already be wired.
func (t *Topology) InsertInline(d *InlineDevice, cfg LinkConfig) {
	if cfg.BandwidthBps <= 0 {
		cfg.BandwidthBps = t.routerToLan.BandwidthBps
	}
	if cfg.BufferBytes <= 0 {
		cfg.BufferBytes = t.routerToLan.BufferBytes
	}
	northCfg := cfg
	northCfg.Name = "router<->" + d.Name()
	southCfg := cfg
	southCfg.Name = d.Name() + "<->lan"

	north := NewLink(t.Sim, t.Border, d, northCfg)
	south := NewLink(t.Sim, d, t.LanSwitch, southCfg)
	d.SetLinks(north, south)
	north.Instrument(t.obsReg)
	south.Instrument(t.obsReg)
	d.Instrument(t.obsReg)

	// Repoint router and LAN switch routes at the device.
	t.Border.rerouteLanVia(north, t.lanPrefix)
	t.LanSwitch.SetUplink(south)
	t.routerToLan = north
}

// rerouteLanVia replaces the LAN route with a route via the given link.
func (r *Router) rerouteLanVia(l *Link, lanPrefix packet.Addr) {
	for i := range r.routes {
		if r.routes[i].prefix == lanPrefix {
			r.routes[i].link = l
			return
		}
	}
	r.AddRoute(lanPrefix, 16, l)
}
