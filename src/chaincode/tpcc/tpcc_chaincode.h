#ifndef FABRICSIM_CHAINCODE_TPCC_TPCC_CHAINCODE_H_
#define FABRICSIM_CHAINCODE_TPCC_TPCC_CHAINCODE_H_

#include "src/chaincode/chaincode.h"
#include "src/chaincode/tpcc/tpcc_schema.h"

namespace fabricsim {

/// TPC-C order-entry chaincode, after Klenik & Kocsis ("Porting a
/// benchmark with a classic workload to blockchain: TPC-C on
/// Hyperledger Fabric"). The five TPC-C transactions run against
/// composite-keyed WAREHOUSE / DISTRICT / CUSTOMER / ORDER / NEWORDER /
/// ORDERLINE / STOCK / ITEM tables (src/chaincode/tpcc/tpcc_schema.h).
///
/// The point of the port is the conflict structure, not the pricing
/// maths: NewOrder reads d_next_o_id from its district row and writes
/// it back incremented — the row is a sequence counter, so any two
/// NewOrders for the same district in flight together conflict — and
/// Payment writes d_ytd on the *same* row. With the standard 45/43 mix
/// that funnels ~88% of transactions through warehouses x 10 district
/// rows, which under Fabric's optimistic execute-order-validate
/// pipeline shows up as MVCC_READ_CONFLICT concentrated on DISTRICT
/// keys, rising with block size (larger blocks = wider conflict
/// window). Money is integer cents throughout: endorsement compares
/// rw-sets byte-for-byte, so float formatting must never enter state.
///
/// Function → operation footprint (n = order lines, B = delivery batch):
///   NewOrder    (3+2n)xR, (3+2n)xW   (invalid item: reads only, error)
///   Payment     3xR, 2xW  (warehouse row read-only: ytd lives in the
///                          district row; see Payment in the .cc)
///   Delivery    1xRR, ≤2B xR, ≤3B xW  (phantom-checked NEWORDER scan)
///   OrderStatus 2xR, 1xRR             (read-only)
///   StockLevel  (1+dist)xR, 1xRR      (read-only; reads the hot
///                                      district row → MVCC victim)
class TpccChaincode : public Chaincode {
 public:
  explicit TpccChaincode(TpccConfig config = {});

  std::string name() const override { return "tpcc"; }
  std::vector<WriteItem> BootstrapState() const override;
  Status Invoke(ChaincodeStub& stub, const Invocation& inv) const override;
  std::vector<std::string> Functions() const override;

  const TpccConfig& config() const { return config_; }

  /// Delivery consumes up to this many oldest NEWORDER entries per
  /// call. 20 keeps consumption capacity (4% x 20) ahead of production
  /// (45%), so the backlog — and with it Delivery's scan footprint —
  /// stays bounded over arbitrarily long runs.
  static constexpr int kDeliveryBatch = 20;

 private:
  Status NewOrder(ChaincodeStub& stub,
                  const std::vector<std::string>& args) const;
  Status Payment(ChaincodeStub& stub,
                 const std::vector<std::string>& args) const;
  Status Delivery(ChaincodeStub& stub,
                  const std::vector<std::string>& args) const;
  Status OrderStatus(ChaincodeStub& stub,
                     const std::vector<std::string>& args) const;
  Status StockLevel(ChaincodeStub& stub,
                    const std::vector<std::string>& args) const;

  TpccConfig config_;
};

}  // namespace fabricsim

#endif  // FABRICSIM_CHAINCODE_TPCC_TPCC_CHAINCODE_H_
