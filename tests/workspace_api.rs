//! Exercises the facade crate's public surface end-to-end: a user story
//! that touches every re-exported module.

use datacentre_hyperloop as dhl;

use dhl::core::{BulkComparison, DhlConfig, LaunchMetrics};
use dhl::net::topology::{FatTree, NodeAddress};
use dhl::physics::{CartMassModel, LinearInductionMotor};
use dhl::sim::api::DhlApi;
use dhl::sim::{DhlSystem, SimConfig};
use dhl::storage::cart::{CartStorage, PcieGeneration, PcieLink};
use dhl::storage::datasets;
use dhl::units::Bytes;

#[test]
fn facade_reexports_compose() {
    assert!(!dhl::VERSION.is_empty());

    // Physics → core: cart mass feeds launch metrics.
    let mass = CartMassModel::paper_default().budget(32).total;
    let lim = LinearInductionMotor::paper_default();
    let e = lim.accel_energy(mass, dhl::units::MetresPerSecond::new(200.0));
    let metrics = LaunchMetrics::evaluate(&DhlConfig::paper_default());
    assert!((metrics.energy.value() - 2.0 * e.value()).abs() < 1e-6);

    // Storage → net: how long does the network need for LAION-5B?
    let laion = datasets::laion_5b();
    let tree = FatTree::figure_2();
    let route = tree
        .route_between(NodeAddress::new(0, 0, 0), NodeAddress::new(1, 0, 0))
        .unwrap();
    let network_time = route.transfer_time(laion.size);
    assert!(network_time.hours() > 1.0);

    // Core: the DHL does it in a couple of trips.
    let cmp = BulkComparison::evaluate(&DhlConfig::paper_default(), laion.size);
    assert_eq!(cmp.dhl.deliveries, 1); // 250 TB fits one 256 TB cart
    assert!(cmp.dhl.time.seconds() < 20.0);
}

#[test]
fn full_user_story_train_on_a_cartload() {
    // An ML engineer opens a cart, streams a dataset shard through the
    // PCIe dock, and sends the cart home — then checks the datacentre-scale
    // numbers with the DES.
    let cart = CartStorage::paper_default();
    let link = PcieLink::new(PcieGeneration::Gen6, 64);
    let docked_bw = cart.docked_read_bandwidth(link);

    let mut api = DhlApi::new(
        SimConfig::paper_default(),
        docked_bw,
        cart.aggregate_write_bandwidth().min(link.bandwidth()),
    )
    .unwrap();
    let c = api.open(1).unwrap();
    let shard = Bytes::from_terabytes(128.0);
    let read_time = api.read(c, shard).unwrap();
    assert!(read_time.seconds() > 100.0); // SSD-bound, not track-bound
    api.close(c).unwrap();

    // The same capacity moved over the DES, datasheet-to-datasheet.
    let report = DhlSystem::new(SimConfig::paper_default())
        .unwrap()
        .run_bulk_transfer(datasets::meta_dlrm_29pb().size)
        .unwrap();
    assert_eq!(report.deliveries, 114);
    assert!(report.total_energy.megajoules() < 5.0);
}
