//! The Vacation reservation manager: transactional tables and the
//! reservation operations over them.

use pnstm::{Stm, Txn, VBox};

/// One reservable resource (a car model, flight, or room type).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReservationInfo {
    /// Total capacity.
    pub total: i64,
    /// Currently reserved.
    pub used: i64,
    /// Price per reservation.
    pub price: i64,
}

impl ReservationInfo {
    /// Free capacity.
    pub fn free(&self) -> i64 {
        self.total - self.used
    }
}

/// A customer: accumulated bill and held reservations.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Customer {
    /// Sum of the prices of the customer's reservations.
    pub bill: i64,
    /// Held reservations as `(kind, resource index)`.
    pub reservations: Vec<(ResourceKind, usize)>,
}

/// The three Vacation relations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceKind {
    Car,
    Flight,
    Room,
}

impl ResourceKind {
    pub const ALL: [ResourceKind; 3] =
        [ResourceKind::Car, ResourceKind::Flight, ResourceKind::Room];
}

/// Transactional storage of the reservation system.
pub struct Manager {
    cars: Vec<VBox<ReservationInfo>>,
    flights: Vec<VBox<ReservationInfo>>,
    rooms: Vec<VBox<ReservationInfo>>,
    customers: Vec<VBox<Customer>>,
}

impl Manager {
    /// Populate `relations` resources per table (capacity and price derived
    /// deterministically from the index) and `customers` empty customers.
    pub fn populate(stm: &Stm, relations: usize, customers: usize) -> Self {
        assert!(relations > 0 && customers > 0);
        let mk_table = |salt: i64| {
            (0..relations)
                .map(|i| {
                    stm.new_vbox(ReservationInfo {
                        total: 100 + (i as i64 * 7 + salt) % 100,
                        used: 0,
                        price: 50 + (i as i64 * 13 + salt * 3) % 450,
                    })
                })
                .collect::<Vec<_>>()
        };
        Self {
            cars: mk_table(1),
            flights: mk_table(2),
            rooms: mk_table(3),
            customers: (0..customers).map(|_| stm.new_vbox(Customer::default())).collect(),
        }
    }

    /// Number of resources per relation.
    pub fn relations(&self) -> usize {
        self.cars.len()
    }

    /// Number of customers.
    pub fn customer_count(&self) -> usize {
        self.customers.len()
    }

    fn table(&self, kind: ResourceKind) -> &[VBox<ReservationInfo>] {
        match kind {
            ResourceKind::Car => &self.cars,
            ResourceKind::Flight => &self.flights,
            ResourceKind::Room => &self.rooms,
        }
    }

    /// Read a resource's info inside a transaction.
    pub fn query(&self, tx: &mut Txn, kind: ResourceKind, idx: usize) -> ReservationInfo {
        tx.read(&self.table(kind)[idx])
    }

    /// Read a resource's info from a read-only snapshot.
    pub fn query_snapshot(
        &self,
        tx: &mut pnstm::ReadTxn<'_>,
        kind: ResourceKind,
        idx: usize,
    ) -> ReservationInfo {
        tx.read(&self.table(kind)[idx])
    }

    /// Reserve one unit of a resource for `customer` inside a transaction;
    /// returns false (without writing) when sold out.
    pub fn reserve(&self, tx: &mut Txn, kind: ResourceKind, idx: usize, customer: usize) -> bool {
        let b = &self.table(kind)[idx];
        let info = tx.read(b);
        if info.free() <= 0 {
            return false;
        }
        tx.write(b, ReservationInfo { used: info.used + 1, ..info });
        let cb = &self.customers[customer];
        let mut cust = tx.read(cb);
        cust.bill += info.price;
        cust.reservations.push((kind, idx));
        tx.write(cb, cust);
        true
    }

    /// Release everything `customer` holds and zero the bill; returns the
    /// number of released reservations.
    pub fn delete_customer(&self, tx: &mut Txn, customer: usize) -> usize {
        let cb = &self.customers[customer];
        let cust = tx.read(cb);
        let n = cust.reservations.len();
        for (kind, idx) in &cust.reservations {
            let b = &self.table(*kind)[*idx];
            let info = tx.read(b);
            tx.write(b, ReservationInfo { used: (info.used - 1).max(0), ..info });
        }
        tx.write(cb, Customer::default());
        n
    }

    /// Change a resource's price (the UpdateTables action).
    pub fn update_price(&self, tx: &mut Txn, kind: ResourceKind, idx: usize, price: i64) {
        let b = &self.table(kind)[idx];
        let info = tx.read(b);
        tx.write(b, ReservationInfo { price, ..info });
    }

    /// Add or remove capacity of a resource.
    pub fn adjust_capacity(&self, tx: &mut Txn, kind: ResourceKind, idx: usize, delta: i64) {
        let b = &self.table(kind)[idx];
        let info = tx.read(b);
        let total = (info.total + delta).max(info.used);
        tx.write(b, ReservationInfo { total, ..info });
    }

    /// Consistency check over a snapshot: every table's `used` is
    /// non-negative and within capacity, and the sum of customers' holdings
    /// equals the sum of `used` across tables.
    pub fn check_invariants(&self, stm: &Stm) -> Result<(), String> {
        stm.read_only(|tx| {
            let mut used_total = 0i64;
            for kind in ResourceKind::ALL {
                for (i, b) in self.table(kind).iter().enumerate() {
                    let info = tx.read(b);
                    if info.used < 0 || info.used > info.total {
                        return Err(format!("{kind:?}[{i}] inconsistent: {info:?}"));
                    }
                    used_total += info.used;
                }
            }
            let held: i64 =
                self.customers.iter().map(|c| tx.read(c).reservations.len() as i64).sum();
            if held != used_total {
                return Err(format!("customers hold {held} but tables show {used_total} used"));
            }
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnstm::StmConfig;

    fn setup() -> (Stm, Manager) {
        let stm = Stm::new(StmConfig::default());
        let mgr = Manager::populate(&stm, 8, 4);
        (stm, mgr)
    }

    #[test]
    fn populate_sizes() {
        let (_stm, mgr) = setup();
        assert_eq!(mgr.relations(), 8);
        assert_eq!(mgr.customer_count(), 4);
    }

    #[test]
    fn reserve_and_bill() {
        let (stm, mgr) = setup();
        stm.atomic(|tx| {
            let before = mgr.query(tx, ResourceKind::Car, 0);
            assert!(mgr.reserve(tx, ResourceKind::Car, 0, 1));
            let after = mgr.query(tx, ResourceKind::Car, 0);
            assert_eq!(after.used, before.used + 1);
            Ok(())
        })
        .unwrap();
        mgr.check_invariants(&stm).unwrap();
    }

    #[test]
    fn reserve_fails_when_sold_out() {
        let (stm, mgr) = setup();
        stm.atomic(|tx| {
            let info = mgr.query(tx, ResourceKind::Room, 2);
            for _ in 0..info.free() {
                assert!(mgr.reserve(tx, ResourceKind::Room, 2, 0));
            }
            assert!(!mgr.reserve(tx, ResourceKind::Room, 2, 0), "sold out must fail");
            Ok(())
        })
        .unwrap();
        mgr.check_invariants(&stm).unwrap();
    }

    #[test]
    fn delete_customer_releases_holdings() {
        let (stm, mgr) = setup();
        stm.atomic(|tx| {
            mgr.reserve(tx, ResourceKind::Car, 1, 2);
            mgr.reserve(tx, ResourceKind::Flight, 3, 2);
            Ok(())
        })
        .unwrap();
        let released = stm.atomic(|tx| Ok(mgr.delete_customer(tx, 2))).unwrap();
        assert_eq!(released, 2);
        mgr.check_invariants(&stm).unwrap();
    }

    #[test]
    fn update_price_and_capacity() {
        let (stm, mgr) = setup();
        stm.atomic(|tx| {
            mgr.update_price(tx, ResourceKind::Flight, 0, 999);
            mgr.adjust_capacity(tx, ResourceKind::Flight, 0, -1000);
            Ok(())
        })
        .unwrap();
        stm.read_only(|_| ());
        stm.atomic(|tx| {
            let info = mgr.query(tx, ResourceKind::Flight, 0);
            assert_eq!(info.price, 999);
            assert_eq!(info.total, info.used, "capacity floor is current usage");
            Ok(())
        })
        .unwrap();
    }
}
