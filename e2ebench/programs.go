package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"time"

	"lce/internal/cloudapi"
	"lce/internal/cluster"
	"lce/internal/httpapi"
	"lce/internal/tenant"
)

// Each workload is closed loop with two clients: every client is one
// DevOps program that waits for each reply before sending the next
// call. Sessions are dealt to clients round-robin, so a session is
// never used by two clients at once.
const clients = 2

// workload fixes one traffic mix: how many sessions, what each session
// is provisioned with, and the 10-call program clients repeat on it.
type workload struct {
	name string
	// sessions is the number of tenant sessions the clients cycle
	// through.
	sessions int
	// nodes is the number of lce-server nodes behind lce-router (0: a
	// single lce-server, no router).
	nodes int
	// dataDir mounts the durable tier and shrinks the pool to
	// residentSlots, so sessions spill.
	dataDir bool
	// provision runs once per session before any program (nil: none).
	provision func(c *caller, s *session)
	// program is the 10-call DevOps program, timed as one unit.
	program func(c *caller, s *session)
}

// hot: a read-mostly program over a provisioned network stack, with
// sessions spread so each of the pool's 8 shards holds 8: as many as
// the default 64-slot pool keeps resident, so it never evicts.
// routed runs the same program and session count behind lce-router.
// churn: a write-heavy create/teardown lifecycle over 128 sessions
// against 16 resident slots, so every program starts on a session
// that was spilled to disk.
var workloads = map[string]workload{
	"hot":    {name: "hot", sessions: 64, provision: provisionStack, program: readMostly},
	"routed": {name: "routed", sessions: 64, nodes: 2, provision: provisionStack, program: readMostly},
	"churn":  {name: "churn", sessions: 128, dataDir: true, program: lifecycle},
}

// poolSlots is lce-server's default -sessions; residentSlots is
// churn's, 128 sessions over 16 slots.
const (
	poolSlots     = 64
	residentSlots = 16
)

// nodeName names fleet member i (0-based) as lce-router knows it.
func nodeName(i int) string { return fmt.Sprintf("n%d", i+1) }

// Resource kinds the programs touch: the action that creates one, the
// result attribute carrying its ID, and the Describe action and list
// attribute that enumerate them.
type kind struct {
	create, idAttr, describe, list string
}

var (
	vpcs      = kind{"CreateVpc", "vpcId", "DescribeVpcs", "vpcs"}
	subnets   = kind{"CreateSubnet", "subnetId", "DescribeSubnets", "subnets"}
	gateways  = kind{"CreateInternetGateway", "internetGatewayId", "DescribeInternetGateways", "internetGateways"}
	tables    = kind{"CreateRouteTable", "routeTableId", "DescribeRouteTables", "routeTables"}
	instances = kind{"RunInstances", "instanceId", "DescribeInstances", "instances"}
)

// session is one tenant's world as the program believes it to be: the
// IDs each Describe must list, and the IDs the program holds.
type session struct {
	id string
	// net is the second octet of the session's 10.net.0.0/16 VPC.
	net int
	// rng draws the per-program inputs (the transient subnet's CIDR).
	rng *rand.Rand
	// live maps a Describe list attribute to the IDs it must return.
	live map[string][]string
	// vpc is the provisioned VPC; provisioned is set once it exists.
	vpc         string
	provisioned bool
}

// newSessions derives a workload's sessions from the seed: the seed
// picks session names and address ranges, never the amount of work.
// Names are drawn until the sessions spread evenly, by the program's
// own hashing, over the nodes (session i on node i mod nodes, so with
// round-robin dealing each client's sessions live on one node) and
// over each node's pool shards, so every seed loads the stack alike.
func newSessions(w workload, seed int64) []*session {
	rng := rand.New(rand.NewSource(seed))
	tag := fmt.Sprintf("%s%x", w.name[:1], rng.Uint32())
	nodes := max(1, w.nodes)
	var ring *cluster.Ring
	if w.nodes > 0 {
		ring = cluster.NewRing(0)
		for i := 0; i < nodes; i++ {
			ring.Add(nodeName(i))
		}
	}
	pools := make([]*tenant.Pool, nodes)
	for i := range pools {
		// Stand-in pools with the servers' shard count, used only to
		// learn which shard a name hashes to; roomy enough that no
		// shard evicts.
		pools[i], _ = tenant.New(func() cloudapi.Backend { return nil }, tenant.Config{Capacity: w.sessions * tenant.DefaultShards})
	}
	perShard := w.sessions / nodes / tenant.DefaultShards
	out := make([]*session, w.sessions)
	next := 0
	for i := range out {
		node := i % nodes
		id := ""
		for id == "" {
			id = fmt.Sprintf("%s-%04d", tag, next)
			next++
			if ring != nil && ring.Owner(id) != nodeName(node) || !claimShard(pools[node], id, perShard) {
				id = ""
			}
		}
		out[i] = &session{
			id:   id,
			net:  rng.Intn(256),
			rng:  rand.New(rand.NewSource(rng.Int63())),
			live: map[string][]string{},
		}
	}
	return out
}

// claimShard admits id to pool unless its shard already holds quota
// sessions.
func claimShard(pool *tenant.Pool, id string, quota int) bool {
	before := pool.Stats().PerShard
	if _, err := pool.Get(id); err != nil {
		return false
	}
	for k, n := range pool.Stats().PerShard {
		if n > before[k] && n > quota {
			pool.Drop(id)
			return false
		}
	}
	return true
}

// deal splits sessions round-robin over the clients.
func deal(ss []*session) [clients][]*session {
	var out [clients][]*session
	for i, s := range ss {
		out[i%clients] = append(out[i%clients], s)
	}
	return out
}

func (s *session) cidr(third, bits int) string {
	if bits == 16 {
		return fmt.Sprintf("10.%d.0.0/16", s.net)
	}
	return fmt.Sprintf("10.%d.%d.0/24", s.net, third)
}

// provisionStack builds a dedicated-tenancy network stack with one
// instance — the provision-network-stack trace plus RunInstances, whose
// inherited tenancy is the state the direct-to-code baseline loses.
func provisionStack(c *caller, s *session) {
	s.vpc = c.create(s, vpcs, params{"cidrBlock": s.cidr(0, 16), "instanceTenancy": "dedicated"})
	igw := c.create(s, gateways, nil)
	c.ok(s, "AttachInternetGateway", params{"internetGatewayId": igw, "vpcId": s.vpc})
	subnet := c.create(s, subnets, params{"vpcId": s.vpc, "cidrBlock": s.cidr(1, 24)})
	rtb := c.create(s, tables, params{"vpcId": s.vpc})
	c.call(s, "CreateRoute", params{"routeTableId": rtb, "destinationCidrBlock": "0.0.0.0/0", "gatewayId": igw}, wantAttr("routeId"))
	c.ok(s, "AssociateRouteTable", params{"routeTableId": rtb, "subnetId": subnet})
	c.create(s, instances, params{"subnetId": subnet})
}

// readMostly is the hot program: eight Describes and one create/delete
// pair on the provisioned stack.
func readMostly(c *caller, s *session) {
	c.describe(s, vpcs)
	c.describe(s, subnets)
	c.describe(s, gateways)
	c.describe(s, tables)
	c.describe(s, instances)
	id := c.create(s, subnets, params{"vpcId": s.vpc, "cidrBlock": s.cidr(2+s.rng.Intn(250), 24)})
	c.describe(s, subnets)
	c.remove(s, subnets, "DeleteSubnet", id)
	c.describe(s, subnets)
	c.describe(s, instances)
}

// lifecycle is the churn program: create VPC, subnet and gateway,
// attach, two Describes, then tear everything down. The next program
// on the session finds its Describes holding only its own resources,
// which checks this teardown.
func lifecycle(c *caller, s *session) {
	vpc := c.create(s, vpcs, params{"cidrBlock": s.cidr(0, 16)})
	subnet := c.create(s, subnets, params{"vpcId": vpc, "cidrBlock": s.cidr(1+s.rng.Intn(250), 24)})
	igw := c.create(s, gateways, nil)
	c.ok(s, "AttachInternetGateway", params{"internetGatewayId": igw, "vpcId": vpc})
	c.describe(s, vpcs)
	c.describe(s, subnets)
	c.ok(s, "DetachInternetGateway", params{"internetGatewayId": igw, "vpcId": vpc})
	c.remove(s, gateways, "DeleteInternetGateway", igw)
	c.remove(s, subnets, "DeleteSubnet", subnet)
	c.remove(s, vpcs, "DeleteVpc", vpc)
}

type params map[string]any

// reply is the wire envelope: a result map on success, the __error
// marker and a code on failure.
type reply struct {
	IsError bool                       `json:"__error"`
	Code    string                     `json:"Code"`
	Message string                     `json:"Message"`
	Result  map[string]json.RawMessage `json:"result"`
}

// item is the slice of a described resource the checks read.
type item struct {
	ID              string `json:"id"`
	InstanceTenancy string `json:"instanceTenancy"`
}

// exchange is one call as the wire saw it, kept for the parity check.
type exchange struct {
	action string
	status int
	body   []byte
}

// caller runs programs against one endpoint over one keep-alive
// connection and checks every answer.
type caller struct {
	base   string // e.g. http://127.0.0.1:4566
	client *http.Client
	tally  tally

	// measuring gates sample collection: warm-up calls are checked
	// and counted but not timed.
	measuring bool
	lat       []time.Duration
	programs  []time.Duration

	// trace, when non-nil, records each call as a client span.
	trace *recorder
	// log, when non-nil, collects every exchange (parity check).
	log *[]exchange
}

// newCaller connects to base with a single-connection client.
func newCaller(base string) *caller {
	return &caller{base: base, client: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   30 * time.Second,
	}}
}

func (c *caller) close() { c.client.CloseIdleConnections() }

// run executes one program on s, timing it when measuring.
func (c *caller) run(w workload, s *session) {
	t0 := time.Now()
	w.program(c, s)
	if c.measuring {
		c.programs = append(c.programs, time.Since(t0))
	}
}

// check inspects a successful result; an error marks the call wrong.
type check func(res map[string]json.RawMessage) error

// call sends one action in session s and checks the answer: HTTP 200,
// a success envelope, and whatever chk demands of the result.
func (c *caller) call(s *session, action string, p params, chk check) {
	var body []byte
	if len(p) > 0 {
		body, _ = json.Marshal(map[string]params{"params": p}) // maps of strings always encode
	}
	res, t0, end, err := c.send(s.id, action, body)
	if err == nil && chk != nil {
		err = chk(res)
	}
	if c.measuring {
		c.lat = append(c.lat, end.Sub(t0))
	}
	if err != nil {
		err = fmt.Errorf("session %s %s: %w", s.id, action, err)
	}
	c.tally.record(err)
}

// send posts one call and decodes the envelope. t0 and end bracket the
// exchange from send to last byte.
func (c *caller) send(sid, action string, body []byte) (res map[string]json.RawMessage, t0, end time.Time, err error) {
	req, err := http.NewRequest(http.MethodPost, c.base+"/v2/ec2?Action="+action, bytes.NewReader(body))
	if err != nil {
		return nil, t0, end, err
	}
	req.Header.Set(httpapi.SessionHeader, sid)
	t0 = time.Now()
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, t0, time.Now(), err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end = time.Now()
	if err != nil {
		return nil, t0, end, err
	}
	if c.trace != nil {
		c.trace.add(layerClient, sid, t0, end.Sub(t0))
	}
	if c.log != nil {
		*c.log = append(*c.log, exchange{action, resp.StatusCode, raw})
	}
	var r reply
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, t0, end, fmt.Errorf("status %d, undecodable body: %v", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK || r.IsError {
		return nil, t0, end, fmt.Errorf("status %d %s: %s", resp.StatusCode, r.Code, r.Message)
	}
	return r.Result, t0, end, nil
}

// create makes one resource of kind k and expects its ID back; the ID
// joins what the kind's Describe must list.
func (c *caller) create(s *session, k kind, p params) string {
	var id string
	c.call(s, k.create, p, func(res map[string]json.RawMessage) error {
		if err := json.Unmarshal(res[k.idAttr], &id); err != nil || id == "" {
			return fmt.Errorf("no %s in result", k.idAttr)
		}
		return nil
	})
	if id != "" {
		s.live[k.list] = append(s.live[k.list], id)
	}
	return id
}

// remove deletes resource id of kind k with action; it must leave the
// kind's Describe.
func (c *caller) remove(s *session, k kind, action, id string) {
	c.ok(s, action, params{k.idAttr: id})
	ids := s.live[k.list]
	for i, x := range ids {
		if x == id {
			s.live[k.list] = append(ids[:i:i], ids[i+1:]...)
			break
		}
	}
}

// ok sends an action whose result must be {"return": true}.
func (c *caller) ok(s *session, action string, p params) {
	c.call(s, action, p, func(res map[string]json.RawMessage) error {
		if string(res["return"]) != "true" {
			return fmt.Errorf("return = %s, want true", res["return"])
		}
		return nil
	})
}

// describe lists kind k and checks the listed IDs are exactly the live
// ones. Instances must also carry the dedicated tenancy they inherit
// from their VPC.
func (c *caller) describe(s *session, k kind) {
	c.call(s, k.describe, nil, func(res map[string]json.RawMessage) error {
		var items []item
		if err := json.Unmarshal(res[k.list], &items); err != nil {
			return fmt.Errorf("%s: %v", k.list, err)
		}
		got := make([]string, len(items))
		for i, it := range items {
			got[i] = it.ID
			if k == instances && it.InstanceTenancy != "dedicated" {
				return fmt.Errorf("instance %s tenancy %q, want inherited \"dedicated\"", it.ID, it.InstanceTenancy)
			}
		}
		want := append([]string(nil), s.live[k.list]...)
		sort.Strings(got)
		sort.Strings(want)
		if strings.Join(got, ",") != strings.Join(want, ",") {
			return fmt.Errorf("%s lists [%s], want [%s]", k.list, strings.Join(got, " "), strings.Join(want, " "))
		}
		return nil
	})
}

// wantAttr checks that a result carries a non-empty attribute.
func wantAttr(name string) check {
	return func(res map[string]json.RawMessage) error {
		if len(res[name]) < 3 { // at least `""` plus one character
			return fmt.Errorf("no %s in result", name)
		}
		return nil
	}
}
