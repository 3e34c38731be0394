package blobseer

import (
	"context"
	"fmt"
	"path/filepath"

	"blobcr/internal/cas"
	"blobcr/internal/chunkstore"
	"blobcr/internal/obs"
	"blobcr/internal/seglog"
	"blobcr/internal/transport"
)

// StoreFactory builds one data provider's chunk store. i is the provider's
// ordinal within the deployment (disk-backed factories derive a directory
// from it). The returned store is wrapped in the CAS dedup layer by the
// deployment; stores owning resources should implement Close() error, which
// Deployment.Close calls.
type StoreFactory func(i int) (chunkstore.Store, error)

// MemStores is the default StoreFactory: a fresh in-memory store per
// provider (tests, examples, simulation).
func MemStores(int) (chunkstore.Store, error) { return chunkstore.NewMem(), nil }

// SeglogStores returns a StoreFactory that roots one segment log per
// provider under dir (disk-backed deployments and the benchmark harness).
func SeglogStores(dir string, opts seglog.Options) StoreFactory {
	return func(i int) (chunkstore.Store, error) {
		return seglog.Open(filepath.Join(dir, fmt.Sprintf("provider-%d", i)), opts)
	}
}

// Deployment is a running BlobSeer service: one version manager, one
// provider manager, nMeta metadata providers and nData data providers, all
// bound on the given Network. It mirrors the paper's setup (Section 4.2:
// one version manager, one provider manager, 20 metadata providers, one data
// provider per compute node).
type Deployment struct {
	VMAddr    string
	PMAddr    string
	MetaAddrs []string
	DataAddrs []string

	// Registries maps each service address to its own obs registry when the
	// deployment was started with DeployTraced; nil otherwise (every service
	// records into obs.Default, as a plain in-process deployment does).
	Registries map[string]*obs.Registry

	dataProviders []*DataProvider
	servers       []transport.Server
	net           transport.Network
	newStore      StoreFactory
	nextStore     int
	traced        bool
}

// Deploy starts a full BlobSeer deployment on n with nMeta metadata
// providers and nData in-memory data providers. Addresses are auto-assigned.
func Deploy(n transport.Network, nMeta, nData int) (*Deployment, error) {
	return DeployWith(n, nMeta, nData, MemStores)
}

// DeployWith is Deploy with a caller-chosen chunk store backend per data
// provider.
func DeployWith(n transport.Network, nMeta, nData int, newStore StoreFactory) (*Deployment, error) {
	return deployServices(n, nMeta, nData, newStore, false)
}

// DeployTraced is Deploy with one fresh obs registry per service — the
// in-process analogue of one process per service. Each server's handler
// spans, per-trace span store and flight ring are isolated in its own
// registry (exposed via Registries), so assembling a cross-process trace
// exercises the same per-address span collection a TCP deployment needs.
func DeployTraced(n transport.Network, nMeta, nData int) (*Deployment, error) {
	return deployServices(n, nMeta, nData, MemStores, true)
}

// DeployObserved is DeployWith with one fresh obs registry per service (see
// DeployTraced) — the shape a federating supervisor expects: each data
// provider's registry is its own scrape target, so the fleet view keeps
// per-node series apart instead of merging them into obs.Default.
func DeployObserved(n transport.Network, nMeta, nData int, newStore StoreFactory) (*Deployment, error) {
	return deployServices(n, nMeta, nData, newStore, true)
}

func deployServices(n transport.Network, nMeta, nData int, newStore StoreFactory, traced bool) (*Deployment, error) {
	if nMeta < 1 || nData < 1 {
		return nil, fmt.Errorf("blobseer: deployment needs at least one metadata and one data provider (got %d, %d)", nMeta, nData)
	}
	d := &Deployment{net: n, newStore: newStore, traced: traced}
	if traced {
		d.Registries = make(map[string]*obs.Registry)
	}
	fail := func(err error) (*Deployment, error) {
		d.Close()
		return nil, err
	}
	serverReg := func() *obs.Registry {
		if !traced {
			return nil // servers fall back to obs.Default
		}
		return obs.NewRegistry()
	}

	vm := NewVersionManager()
	vm.Obs = serverReg()
	srv, err := vm.Serve(n, "")
	if err != nil {
		return fail(err)
	}
	d.servers = append(d.servers, srv)
	d.VMAddr = srv.Addr()
	d.recordRegistry(srv.Addr(), vm.Obs)

	pm := NewProviderManager()
	pm.Obs = serverReg()
	srv, err = pm.Serve(n, "")
	if err != nil {
		return fail(err)
	}
	d.servers = append(d.servers, srv)
	d.PMAddr = srv.Addr()
	d.recordRegistry(srv.Addr(), pm.Obs)

	for i := 0; i < nMeta; i++ {
		mp := NewMetadataProvider()
		mp.Obs = serverReg()
		srv, err := mp.Serve(n, "")
		if err != nil {
			return fail(err)
		}
		d.servers = append(d.servers, srv)
		d.MetaAddrs = append(d.MetaAddrs, srv.Addr())
		d.recordRegistry(srv.Addr(), mp.Obs)
	}

	for i := 0; i < nData; i++ {
		if _, err := d.AddDataProvider(context.Background()); err != nil {
			return fail(err)
		}
	}
	return d, nil
}

func (d *Deployment) recordRegistry(addr string, reg *obs.Registry) {
	if d.Registries != nil && reg != nil {
		d.Registries[addr] = reg
	}
}

// AddDataProvider starts one more data provider (the CAS layer over the
// deployment's store factory) and JOINs it to the provider manager: from the
// moment the join registers, new chunk placements may land on it — the
// elasticity the repair plane relies on for spare storage capacity after a
// provider loss. Returns the new provider's address.
func (d *Deployment) AddDataProvider(ctx context.Context) (string, error) {
	backend, err := d.newStore(d.nextStore)
	if err != nil {
		return "", err
	}
	d.nextStore++
	store, err := cas.NewStore(backend)
	if err != nil {
		closeStore(backend)
		return "", err
	}
	dp := NewDataProvider(store)
	if d.traced {
		dp.Obs = obs.NewRegistry()
	}
	srv, err := dp.Serve(d.net, "")
	if err != nil {
		closeStore(store)
		return "", err
	}
	if err := d.Client().RegisterProvider(ctx, srv.Addr()); err != nil {
		srv.Close()
		closeStore(store)
		return "", err
	}
	d.servers = append(d.servers, srv)
	d.dataProviders = append(d.dataProviders, dp)
	d.DataAddrs = append(d.DataAddrs, srv.Addr())
	d.recordRegistry(srv.Addr(), dp.Obs)
	return srv.Addr(), nil
}

// Client returns a client bound to this deployment with replication 1.
func (d *Deployment) Client() *Client {
	return &Client{
		Net:       d.net,
		VMAddr:    d.VMAddr,
		PMAddr:    d.PMAddr,
		MetaAddrs: append([]string(nil), d.MetaAddrs...),
	}
}

// DataProviderStores exposes the chunk stores for inspection
// (space-accounting tests and the storage-utilization experiments).
func (d *Deployment) DataProviderStores() []chunkstore.Store {
	out := make([]chunkstore.Store, len(d.dataProviders))
	for i, dp := range d.dataProviders {
		out[i] = dp.Store()
	}
	return out
}

// Close stops all services and closes the provider chunk stores (flushing
// and releasing segment logs).
func (d *Deployment) Close() {
	for _, s := range d.servers {
		s.Close()
	}
	d.servers = nil
	for _, dp := range d.dataProviders {
		closeStore(dp.Store())
	}
	d.dataProviders = nil
}

// closeStore releases a store's resources if it holds any.
func closeStore(s chunkstore.Store) {
	if c, ok := s.(interface{ Close() error }); ok {
		c.Close() //nolint:errcheck // release path
	}
}
