#include "dram/ddr4_command.hh"

#include <sstream>

#include "common/logging.hh"

namespace nvdimmc::dram
{

const char*
toString(Ddr4Op op)
{
    switch (op) {
      case Ddr4Op::Deselect: return "DES";
      case Ddr4Op::Nop: return "NOP";
      case Ddr4Op::Activate: return "ACT";
      case Ddr4Op::Read: return "RD";
      case Ddr4Op::ReadAP: return "RDA";
      case Ddr4Op::Write: return "WR";
      case Ddr4Op::WriteAP: return "WRA";
      case Ddr4Op::Precharge: return "PRE";
      case Ddr4Op::PrechargeAll: return "PREA";
      case Ddr4Op::Refresh: return "REF";
      case Ddr4Op::SelfRefreshEnter: return "SRE";
      case Ddr4Op::SelfRefreshExit: return "SRX";
      case Ddr4Op::ModeRegisterSet: return "MRS";
      case Ddr4Op::ZqCalibration: return "ZQCL";
    }
    return "?";
}

std::string
Ddr4Command::describe() const
{
    std::ostringstream os;
    os << toString(op) << " bg" << int(bankGroup) << " ba" << int(bank)
       << " row" << row << " col" << col;
    return os.str();
}

CaFrame
encodeCommand(const Ddr4Command& cmd)
{
    CaFrame f;
    f.bg = cmd.bankGroup;
    f.ba = cmd.bank;

    switch (cmd.op) {
      case Ddr4Op::Deselect:
        f.csN = true;
        break;
      case Ddr4Op::Nop:
        // Selected, ACT_n high, RAS/CAS/WE all high.
        f.csN = false;
        f.rasN = f.casN = f.weN = true;
        break;
      case Ddr4Op::Activate:
        // ACT_n low; RAS/CAS/WE carry high row-address bits.
        f.csN = false;
        f.actN = false;
        f.addr = cmd.row;
        f.rasN = (cmd.row >> 16) & 1;
        f.casN = (cmd.row >> 15) & 1;
        f.weN = (cmd.row >> 14) & 1;
        break;
      case Ddr4Op::Read:
      case Ddr4Op::ReadAP:
        f.csN = false;
        f.rasN = true;
        f.casN = false;
        f.weN = true;
        f.addr = cmd.col;
        f.a10 = cmd.op == Ddr4Op::ReadAP;
        break;
      case Ddr4Op::Write:
      case Ddr4Op::WriteAP:
        f.csN = false;
        f.rasN = true;
        f.casN = false;
        f.weN = false;
        f.addr = cmd.col;
        f.a10 = cmd.op == Ddr4Op::WriteAP;
        break;
      case Ddr4Op::Precharge:
      case Ddr4Op::PrechargeAll:
        f.csN = false;
        f.rasN = false;
        f.casN = true;
        f.weN = false;
        f.a10 = cmd.op == Ddr4Op::PrechargeAll;
        break;
      case Ddr4Op::Refresh:
        // The encoding the paper's detector matches: CKE, ACT_n, WE_n
        // high; CS_n, RAS_n, CAS_n low.
        f.csN = false;
        f.rasN = false;
        f.casN = false;
        f.weN = true;
        break;
      case Ddr4Op::SelfRefreshEnter:
        // REF encoding with CKE driven low this cycle.
        f.csN = false;
        f.rasN = false;
        f.casN = false;
        f.weN = true;
        f.cke = false;
        f.ckePrev = true;
        break;
      case Ddr4Op::SelfRefreshExit:
        // Deselect with CKE rising.
        f.csN = true;
        f.cke = true;
        f.ckePrev = false;
        break;
      case Ddr4Op::ModeRegisterSet:
        f.csN = false;
        f.rasN = false;
        f.casN = false;
        f.weN = false;
        f.addr = cmd.row; // Mode register payload.
        break;
      case Ddr4Op::ZqCalibration:
        f.csN = false;
        f.rasN = true;
        f.casN = true;
        f.weN = false;
        break;
    }
    return f;
}

Ddr4Command
decodeFrame(const CaFrame& f)
{
    Ddr4Command cmd;
    cmd.bankGroup = f.bg;
    cmd.bank = f.ba;

    if (f.csN) {
        // Deselect; with CKE rising out of a low state this is SRX.
        cmd.op = (!f.ckePrev && f.cke) ? Ddr4Op::SelfRefreshExit
                                       : Ddr4Op::Deselect;
        return cmd;
    }

    if (!f.actN) {
        cmd.op = Ddr4Op::Activate;
        cmd.row = f.addr;
        return cmd;
    }

    const int key = (f.rasN ? 4 : 0) | (f.casN ? 2 : 0) | (f.weN ? 1 : 0);
    switch (key) {
      case 0b111:
        cmd.op = Ddr4Op::Nop;
        break;
      case 0b001:
        // REF family: CKE falling makes it SRE.
        cmd.op = (f.ckePrev && !f.cke) ? Ddr4Op::SelfRefreshEnter
                                       : Ddr4Op::Refresh;
        break;
      case 0b010:
        cmd.op = f.a10 ? Ddr4Op::PrechargeAll : Ddr4Op::Precharge;
        break;
      case 0b101:
        cmd.op = f.a10 ? Ddr4Op::ReadAP : Ddr4Op::Read;
        cmd.col = f.addr;
        break;
      case 0b100:
        cmd.op = f.a10 ? Ddr4Op::WriteAP : Ddr4Op::Write;
        cmd.col = f.addr;
        break;
      case 0b000:
        cmd.op = Ddr4Op::ModeRegisterSet;
        cmd.row = f.addr;
        break;
      case 0b110:
        cmd.op = Ddr4Op::ZqCalibration;
        break;
      default:
        // 0b011 is reserved in DDR4; treat as NOP.
        cmd.op = Ddr4Op::Nop;
        break;
    }
    return cmd;
}

} // namespace nvdimmc::dram
