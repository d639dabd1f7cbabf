#include "src/chaincode/tpcc/tpcc_chaincode.h"

#include <algorithm>
#include <set>
#include <string>

#include "src/chaincode/composite_key.h"
#include "src/common/strings.h"
#include "src/statedb/rich_query.h"

namespace fabricsim {

using tpcc::CustomerKey;
using tpcc::DistrictKey;
using tpcc::ItemKey;
using tpcc::NewOrderKey;
using tpcc::OrderKey;
using tpcc::OrderLineKey;
using tpcc::StockKey;
using tpcc::WarehouseKey;

namespace {

long long FieldInt(const std::string& doc, const char* field) {
  return std::stoll(ExtractJsonField(doc, field).value_or("0"));
}

std::string DistrictDoc(int tax_bp, long long ytd, long long next_o_id) {
  return JsonObject({{"docType", "district"},
                     {"tax_bp", std::to_string(tax_bp)},
                     {"ytd", std::to_string(ytd)},
                     {"next_o_id", std::to_string(next_o_id)}});
}

std::string CustomerDoc(long long balance, long long ytd_payment,
                        long long payments) {
  return JsonObject({{"docType", "customer"},
                     {"balance", std::to_string(balance)},
                     {"ytd_payment", std::to_string(ytd_payment)},
                     {"payments", std::to_string(payments)}});
}

std::string StockDoc(long long quantity, long long ytd, long long order_cnt) {
  return JsonObject({{"docType", "stock"},
                     {"quantity", std::to_string(quantity)},
                     {"ytd", std::to_string(ytd)},
                     {"order_cnt", std::to_string(order_cnt)}});
}

std::string OrderDoc(int c_id, int ol_cnt, const std::string& carrier) {
  return JsonObject({{"docType", "order"},
                     {"c_id", std::to_string(c_id)},
                     {"ol_cnt", std::to_string(ol_cnt)},
                     {"carrier", carrier}});
}

}  // namespace

TpccChaincode::TpccChaincode(TpccConfig config) : config_(config) {}

std::vector<WriteItem> TpccChaincode::BootstrapState() const {
  std::vector<WriteItem> writes;
  for (int i = 0; i < config_.items; ++i) {
    writes.push_back(WriteItem{
        ItemKey(i),
        JsonObject({{"docType", "item"},
                    {"price", std::to_string(tpcc::ItemPriceCents(i))}}),
        false});
  }
  for (int w = 0; w < config_.warehouses; ++w) {
    writes.push_back(WriteItem{
        WarehouseKey(w),
        JsonObject({{"docType", "warehouse"},
                    {"tax_bp", std::to_string(tpcc::WarehouseTaxBp(w))},
                    {"ytd", "0"}}),
        false});
    for (int d = 0; d < config_.districts_per_warehouse; ++d) {
      writes.push_back(WriteItem{
          DistrictKey(w, d), DistrictDoc(tpcc::DistrictTaxBp(w, d), 0, 0),
          false});
      for (int c = 0; c < config_.customers_per_district; ++c) {
        writes.push_back(
            WriteItem{CustomerKey(w, d, c), CustomerDoc(0, 0, 0), false});
      }
    }
    for (int i = 0; i < config_.items; ++i) {
      writes.push_back(WriteItem{
          StockKey(w, i),
          StockDoc(tpcc::InitialStockQuantity(w, i), 0, 0), false});
    }
  }
  return writes;
}

std::vector<std::string> TpccChaincode::Functions() const {
  return {"NewOrder", "Payment", "Delivery", "OrderStatus", "StockLevel"};
}

Status TpccChaincode::Invoke(ChaincodeStub& stub,
                            const Invocation& inv) const {
  if (inv.function == "NewOrder") return NewOrder(stub, inv.args);
  if (inv.function == "Payment") return Payment(stub, inv.args);
  if (inv.function == "Delivery") return Delivery(stub, inv.args);
  if (inv.function == "OrderStatus") return OrderStatus(stub, inv.args);
  if (inv.function == "StockLevel") return StockLevel(stub, inv.args);
  return Status::InvalidArgument("tpcc: unknown function " + inv.function);
}

// args: w, d, c, n, then n (item, quantity) pairs.
Status TpccChaincode::NewOrder(ChaincodeStub& stub,
                               const std::vector<std::string>& args) const {
  if (args.size() < 4) {
    return Status::InvalidArgument("NewOrder: expected at least 4 args");
  }
  int w = std::stoi(args[0]);
  int d = std::stoi(args[1]);
  int c = std::stoi(args[2]);
  int n = std::stoi(args[3]);
  if (n < 1 || args.size() < static_cast<size_t>(4 + 2 * n)) {
    return Status::InvalidArgument("NewOrder: expected " +
                                   std::to_string(4 + 2 * std::max(n, 1)) +
                                   " args");
  }

  // Item reads come first (TPC-C §2.4.2.3: the 1% invalid-item
  // transaction performs its reads, then rolls back). The error status
  // fails endorsement, so none of the writes below reach the orderer —
  // the simulator's application-level rollback.
  std::vector<int> prices(n);
  for (int l = 0; l < n; ++l) {
    int item = std::stoi(args[4 + 2 * l]);
    std::optional<std::string> doc = stub.GetState(ItemKey(item));
    if (!doc.has_value()) {
      return Status::NotFound(StrFormat(
          "NewOrder: item %d does not exist; transaction rolled back", item));
    }
    prices[l] = static_cast<int>(FieldInt(*doc, "price"));
  }

  std::optional<std::string> wh = stub.GetState(WarehouseKey(w));
  std::optional<std::string> dist = stub.GetState(DistrictKey(w, d));
  if (!wh.has_value() || !dist.has_value()) {
    return Status::NotFound(StrFormat("NewOrder: warehouse %d / district %d "
                                      "not bootstrapped", w, d));
  }
  // The district row is the hotspot: o_id comes from the committed
  // d_next_o_id (never from per-client state, so every endorser derives
  // the same id), and writing it back incremented makes the row a
  // sequence counter that every concurrent NewOrder in this district
  // conflicts on.
  long long o_id = FieldInt(*dist, "next_o_id");
  stub.PutState(DistrictKey(w, d),
                DistrictDoc(static_cast<int>(FieldInt(*dist, "tax_bp")),
                            FieldInt(*dist, "ytd"), o_id + 1));
  std::optional<std::string> cust = stub.GetState(CustomerKey(w, d, c));
  if (!cust.has_value()) {
    return Status::NotFound(StrFormat("NewOrder: no customer %d", c));
  }

  int o = static_cast<int>(o_id);
  stub.PutState(OrderKey(w, d, o), OrderDoc(c, n, ""));
  stub.PutState(NewOrderKey(w, d, o),
                JsonObject({{"docType", "neworder"}}));
  for (int l = 0; l < n; ++l) {
    int item = std::stoi(args[4 + 2 * l]);
    int qty = std::stoi(args[5 + 2 * l]);
    std::optional<std::string> stock = stub.GetState(StockKey(w, item));
    long long s_qty = stock.has_value() ? FieldInt(*stock, "quantity") : 0;
    // TPC-C §2.4.2.2: restock by 91 when the shelf would drop below 10.
    long long new_qty =
        s_qty - qty >= 10 ? s_qty - qty : s_qty - qty + 91;
    stub.PutState(StockKey(w, item),
                  StockDoc(new_qty,
                           (stock.has_value() ? FieldInt(*stock, "ytd") : 0) +
                               qty,
                           (stock.has_value()
                                ? FieldInt(*stock, "order_cnt") : 0) + 1));
    stub.PutState(OrderLineKey(w, d, o, l),
                  JsonObject({{"docType", "orderline"},
                              {"i_id", std::to_string(item)},
                              {"qty", std::to_string(qty)},
                              {"amount",
                               std::to_string(1LL * qty * prices[l])}}));
  }
  return Status::OK();
}

// args: w, d, c, amount_cents.
Status TpccChaincode::Payment(ChaincodeStub& stub,
                              const std::vector<std::string>& args) const {
  if (args.size() < 4) {
    return Status::InvalidArgument("Payment: expected 4 args");
  }
  int w = std::stoi(args[0]);
  int d = std::stoi(args[1]);
  int c = std::stoi(args[2]);
  long long amount = std::stoll(args[3]);

  std::optional<std::string> wh = stub.GetState(WarehouseKey(w));
  std::optional<std::string> dist = stub.GetState(DistrictKey(w, d));
  std::optional<std::string> cust = stub.GetState(CustomerKey(w, d, c));
  if (!wh.has_value() || !dist.has_value() || !cust.has_value()) {
    return Status::NotFound(
        StrFormat("Payment: missing row for w=%d d=%d c=%d", w, d, c));
  }
  // Port decision: the warehouse row stays immutable (tax only) and
  // ytd accounting lives entirely in the district row (w_ytd is the
  // sum of its districts' d_ytd, derivable at read time). Accumulating
  // w_ytd on the one warehouse row would serialize every Payment in
  // the warehouse AND kill every NewOrder that read w_tax — the
  // classic Fabric hot-row anti-pattern, and it would bury the
  // district signal Klenik & Kocsis's analysis attributes the
  // conflicts to. Payment therefore writes the same district row
  // NewOrder sequences on, doubling down on the district hotspot.
  stub.PutState(DistrictKey(w, d),
                DistrictDoc(static_cast<int>(FieldInt(*dist, "tax_bp")),
                            FieldInt(*dist, "ytd") + amount,
                            FieldInt(*dist, "next_o_id")));
  stub.PutState(CustomerKey(w, d, c),
                CustomerDoc(FieldInt(*cust, "balance") - amount,
                            FieldInt(*cust, "ytd_payment") + amount,
                            FieldInt(*cust, "payments") + 1));
  return Status::OK();
}

// args: w, d, carrier id.
Status TpccChaincode::Delivery(ChaincodeStub& stub,
                               const std::vector<std::string>& args) const {
  if (args.size() < 3) {
    return Status::InvalidArgument("Delivery: expected 3 args");
  }
  int w = std::stoi(args[0]);
  int d = std::stoi(args[1]);
  const std::string& carrier = args[2];

  // Phantom-checked scan of the district's NEWORDER backlog: a
  // concurrent NewOrder committing into this range between endorsement
  // and validation fails this transaction with PHANTOM_READ_CONFLICT.
  std::vector<StateEntryRef> backlog = stub.GetStateByPartialCompositeKey(
      tpcc::kNewOrderTable,
      {PadKey(static_cast<uint64_t>(w), 4),
       PadKey(static_cast<uint64_t>(d), 2)});
  int delivered = 0;
  for (const StateEntryRef& entry : backlog) {
    if (delivered >= kDeliveryBatch) break;
    std::string type;
    std::vector<std::string> attrs;
    if (!SplitCompositeKey(entry.key, &type, &attrs) || attrs.size() != 3) {
      continue;
    }
    int o = std::stoi(attrs[2]);
    stub.DelState(entry.key);
    std::optional<std::string> order = stub.GetState(OrderKey(w, d, o));
    if (!order.has_value()) continue;
    int c = static_cast<int>(FieldInt(*order, "c_id"));
    int ol_cnt = static_cast<int>(FieldInt(*order, "ol_cnt"));
    stub.PutState(OrderKey(w, d, o), OrderDoc(c, ol_cnt, carrier));
    std::optional<std::string> cust = stub.GetState(CustomerKey(w, d, c));
    if (cust.has_value()) {
      // Flat per-line credit instead of re-scanning the order lines:
      // keeps Delivery's footprint O(batch) rather than O(batch x
      // lines) while still writing the customer row TPC-C requires.
      stub.PutState(CustomerKey(w, d, c),
                    CustomerDoc(FieldInt(*cust, "balance") + 500LL * ol_cnt,
                                FieldInt(*cust, "ytd_payment"),
                                FieldInt(*cust, "payments")));
    }
    ++delivered;
  }
  return Status::OK();
}

// args: w, d, c, o (the generator's optimistic guess of a recent
// order; a stale guess still records the read dependency).
Status TpccChaincode::OrderStatus(ChaincodeStub& stub,
                                  const std::vector<std::string>& args) const {
  if (args.size() < 4) {
    return Status::InvalidArgument("OrderStatus: expected 4 args");
  }
  int w = std::stoi(args[0]);
  int d = std::stoi(args[1]);
  int c = std::stoi(args[2]);
  int o = std::stoi(args[3]);
  stub.GetState(CustomerKey(w, d, c));
  stub.GetState(OrderKey(w, d, o));
  stub.GetStateByPartialCompositeKey(
      tpcc::kOrderLineTable,
      {PadKey(static_cast<uint64_t>(w), 4), PadKey(static_cast<uint64_t>(d), 2),
       PadKey(static_cast<uint64_t>(o), 8)});
  return Status::OK();
}

// args: w, d, threshold.
Status TpccChaincode::StockLevel(ChaincodeStub& stub,
                                 const std::vector<std::string>& args) const {
  if (args.size() < 3) {
    return Status::InvalidArgument("StockLevel: expected 3 args");
  }
  int w = std::stoi(args[0]);
  int d = std::stoi(args[1]);
  long long threshold = std::stoll(args[2]);

  // Read-only, yet it reads the district sequence row — so it cannot
  // write-conflict with anything but still dies of MVCC_READ_CONFLICT
  // whenever a NewOrder/Payment for the district commits first. This
  // is the paper's "read-only transactions are not safe" observation.
  std::optional<std::string> dist = stub.GetState(DistrictKey(w, d));
  if (!dist.has_value()) {
    return Status::NotFound(StrFormat("StockLevel: no district %d/%d", w, d));
  }
  long long next_o = FieldInt(*dist, "next_o_id");
  long long lo = std::max(0LL, next_o - 10);
  // Order-line keys sort by (w, d, o, line), so the last-10-orders
  // window is one contiguous range: [prefix(w,d,lo), prefix(w,d,next)).
  std::vector<StateEntryRef> lines = stub.GetStateByRange(
      MakeCompositeKey(tpcc::kOrderLineTable,
                       {PadKey(static_cast<uint64_t>(w), 4),
                        PadKey(static_cast<uint64_t>(d), 2),
                        PadKey(static_cast<uint64_t>(lo), 8)}),
      MakeCompositeKey(tpcc::kOrderLineTable,
                       {PadKey(static_cast<uint64_t>(w), 4),
                        PadKey(static_cast<uint64_t>(d), 2),
                        PadKey(static_cast<uint64_t>(next_o), 8)}));
  std::set<int> items;
  for (const StateEntryRef& line : lines) {
    if (items.size() >= 20) break;  // bounded footprint
    items.insert(
        static_cast<int>(FieldInt(line.vv.value, "i_id")));
  }
  long long low = 0;
  for (int item : items) {
    std::optional<std::string> stock = stub.GetState(StockKey(w, item));
    if (stock.has_value() && FieldInt(*stock, "quantity") < threshold) ++low;
  }
  (void)low;  // the count is the client's answer; only the reads matter here
  return Status::OK();
}

}  // namespace fabricsim
